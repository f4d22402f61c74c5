package ebpf

import (
	"encoding/binary"
	"fmt"
)

// The registers only tests name.
const (
	R4 = 4
	R7 = 7
	R8 = 8
	R9 = 9
)

// MustLoad is Load that panics on error, for the hand-built programs of
// this package's tests.
func MustLoad(name string, insns []Instruction, opts LoadOptions) *Program {
	p, err := Load(name, insns, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// MustNewMap is NewMap that panics on error, for the maps of those
// programs.
func MustNewMap(spec MapSpec) *Map {
	m, err := NewMap(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// loadUnverified decodes insns without verifying them, after the
// structural checks every program takes: how the runtime faults a
// verified program cannot reach get exercised. No other package can build
// such a program, so every program a hook runs was verified.
func loadUnverified(name string, insns []Instruction) (*Program, error) {
	v, err := verifyFile(name, &AsmFile{Insns: insns}, 0)
	if err != nil {
		return nil, err
	}
	p, _, err := v.Bind(nil)
	return p, err
}

// loadSource takes .syr source down the one path: assemble, verify, bind.
func loadSource(name, src string, defines map[string]int64, existing map[string]*Map) (*Program, map[string]*Map, error) {
	f, err := Assemble(src, defines)
	if err != nil {
		return nil, nil, err
	}
	v, err := Verify(name, f)
	if err != nil {
		return nil, nil, err
	}
	return v.Bind(existing)
}

// RunInterp runs the reference: the same walker over the same code on
// fresh zeroed state. Differential tests use it as the oracle for Run's
// reused, unscrubbed state.
func (p *Program) RunInterp(ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, st, err := p.runRef(ctx, env)
	return uint32(ret), st, err
}

func (p *Program) runRef(ctx *Ctx, env *Env) (uint64, ExecStats, error) {
	rs := new(runState)
	ret, err := p.exec(rs, ctx, env)
	return ret, rs.stats, err
}

// Dump renders every slot of an array map and every entry of a hash map as
// hex value by hex key: the final map state the differential tests compare.
func (m *Map) Dump() map[string]string {
	out := map[string]string{}
	switch m.spec.Type {
	case MapArray:
		vs := int(m.spec.ValueSize)
		for i := range int(m.spec.MaxEntries) {
			key := binary.LittleEndian.AppendUint32(nil, uint32(i))
			out[fmt.Sprintf("%x", key)] = fmt.Sprintf("%x", m.arrayData[i*vs:(i+1)*vs])
		}
	case MapHash:
		for k, v := range m.hashData {
			out[fmt.Sprintf("%x", k)] = fmt.Sprintf("%x", v)
		}
	}
	return out
}

// textRenderable reports whether render can represent the stream exactly:
// no jump may target the high half of an LDDW pair or a slot outside the
// stream and the one past its end, since no line there can carry a label.
// Reachable code in a verified program always renders; only unreachable
// garbage can fail this.
func textRenderable(insns []Instruction) bool {
	for i, ins := range insns {
		if !isJump(ins) {
			continue
		}
		tgt := i + 1 + int(ins.Off)
		if tgt < 0 || tgt > len(insns) || tgt > 0 && insns[tgt-1].IsLDDW() {
			return false
		}
	}
	return true
}
