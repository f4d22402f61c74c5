package ebpf

// Reference returns the semantic oracle for p: an uncompiled twin over the
// stream the verifier first admitted (before any optimization), sharing
// p's maps. It is runnable only through RunInterp; differential tests
// compare it against Run on a separately loaded copy of the program.
func (p *Program) Reference() *Program {
	return &Program{name: p.name, insns: p.verified(), maps: p.maps}
}
