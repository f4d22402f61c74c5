package ebpf

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file implements the assembler for Syrup's policy file dialect (.syr),
// the concrete syntax in which users ship schedule() implementations to
// syrupd. It is the kernel-community BPF assembly style:
//
//	.const NUM_THREADS 6          ; compile-time parameter (deploy-time
//	                              ; defines override these)
//	.map counters array 4 8 1     ; name type key_size value_size entries
//
//	  r6 = *(u64 *)(r1 + 0)       ; pkt_start
//	  r7 = *(u64 *)(r1 + 8)       ; pkt_end
//	  r2 = r6
//	  r2 += 16
//	  if r2 > r7 goto pass
//	  r1 = map(counters)          ; pseudo map load
//	  ...
//	pass:
//	  r0 = PASS
//	  exit
//
// Comments start with ';', '#' or '//'. The named constants PASS and DROP
// are predefined. A register is r or w and decimal digits, nothing else;
// any other operand word is a constant or a number.

// AsmFile is the output of Assemble: instructions plus the maps they
// declare. LDDW pseudo instructions' Imm fields index Maps.
type AsmFile struct {
	Maps  []MapSpec
	Insns []Instruction
	// SourceLines counts non-empty, non-comment source lines — the LoC
	// metric Table 2 reports.
	SourceLines int
	lines       []int // each instruction slot's source line, which a rejection names
	mapLines    []int // each declared map's .map line, likewise
}

// posError is a rejection: source line (0 if unknown), slot (-1 if unknown).
type posError struct {
	line, slot int
	reason     string
}

// reject is the one constructor of a rejection: at slot, on no line yet.
// It stays out of line, so the checks that end in it stay small.
//
//go:noinline
func reject(slot int, format string, args ...any) *posError {
	return &posError{slot: slot, reason: fmt.Sprintf(format, args...)}
}

// Error is "line L: insn N: reason", without the parts that are unknown.
func (e *posError) Error() string {
	s := e.reason
	if e.slot >= 0 {
		s = fmt.Sprintf("insn %d: %s", e.slot, s)
	}
	if e.line > 0 {
		s = fmt.Sprintf("line %d: %s", e.line, s)
	}
	return s
}

// aluSymbol and jmpSymbol spell the ALU and conditional-jump operations,
// indexed by the operation's bits 4-7: the renderer indexes them and the
// parser searches them. NEG, ja, call and exit have line forms of their
// own.
var aluSymbol = [16]string{
	ALUAdd >> 4: "+=", ALUSub >> 4: "-=", ALUMul >> 4: "*=", ALUDiv >> 4: "/=",
	ALUOr >> 4: "|=", ALUAnd >> 4: "&=", ALULsh >> 4: "<<=", ALURsh >> 4: ">>=",
	ALUMod >> 4: "%=", ALUXor >> 4: "^=", ALUMov >> 4: "=", ALUArsh >> 4: "s>>=",
}

var jmpSymbol = [16]string{
	JmpEq >> 4: "==", JmpNe >> 4: "!=", JmpGt >> 4: ">", JmpGe >> 4: ">=",
	JmpLt >> 4: "<", JmpLe >> 4: "<=", JmpSGt >> 4: "s>", JmpSGe >> 4: "s>=",
	JmpSLt >> 4: "s<", JmpSLe >> 4: "s<=", JmpSet >> 4: "&",
}

type fixup struct {
	insn  int
	label string
	line  int
}

// assembler is one Assemble call. Its cursor over the current line is the
// only lexer: each method that reads a token skips the blanks before it.
type assembler struct {
	f      AsmFile
	consts map[string]int64 // PASS, DROP, the .const lines, then defines
	mapIdx map[string]int
	labels map[string]int
	fixups []fixup
	line   string // the current line, without its comment and outer blanks
	pos, n int    // the cursor's offset in line, and line's number from 1
	err    error  // the first error; no line after its line is read
}

// Assemble parses source into an AsmFile. defines supplies (or overrides)
// named constants, which is how syrupd injects deploy-time parameters such
// as NUM_THREADS.
func Assemble(src string, defines map[string]int64) (*AsmFile, error) {
	a := &assembler{
		consts: map[string]int64{"PASS": int64(VerdictPass), "DROP": int64(VerdictDrop)},
		mapIdx: map[string]int{},
		labels: map[string]int{},
	}
	// Declarations first, so a name may be used above the line declaring it.
	a.eachLine(src, func() {
		a.f.SourceLines++
		if a.line[0] == '.' {
			a.directive()
		}
	})
	for k, v := range defines {
		a.consts[k] = v
	}
	a.f.Insns, a.f.lines = make([]Instruction, 0, a.f.SourceLines), make([]int, 0, a.f.SourceLines)
	a.eachLine(src, func() {
		if a.line[0] != '.' {
			a.statement()
		}
	})
	for _, fx := range a.fixups {
		target, ok := a.labels[fx.label]
		off := target - fx.insn - 1
		if a.n = fx.line; !ok {
			a.failf("undefined label %q", fx.label)
		} else if off > 32767 || off < -32768 {
			a.failf("jump offset out of range")
		}
		a.f.Insns[fx.insn].Off = int16(off)
	}
	if a.err != nil {
		return nil, a.err
	}
	if len(a.f.Insns) == 0 {
		return nil, fmt.Errorf("ebpf: empty program")
	}
	return &a.f, nil
}

// eachLine points the cursor at each non-empty line of src in turn and
// calls do, until a line fails.
func (a *assembler) eachLine(src string, do func()) {
	for n := 1; src != "" && a.err == nil; n++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		for _, c := range []string{";", "#", "//"} {
			line, _, _ = strings.Cut(line, c)
		}
		if line = strings.TrimSpace(line); line != "" {
			a.line, a.pos, a.n = line, 0, n
			do()
		}
	}
}

// directive reads a .const or a .map line. Any other line that starts
// with '.', or one of those two not in the declaration's form, is an error.
func (a *assembler) directive() {
	a.pos = 1
	var kind string
	if len(a.line) > 1 && isWordByte(a.line[1]) {
		kind = a.word()
	}
	switch kind {
	case "const":
		// The value is the rest of the line, after a blank and without one.
		name, rest := a.word(), a.line[a.pos:]
		text := strings.TrimLeft(rest, blanks)
		if name == "" || text == "" || len(text) == len(rest) || strings.ContainsAny(text, blanks) {
			a.failf("bad directive %q: want .const NAME VALUE", a.line)
			return
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			a.failf("bad constant %q: %v", text, err)
			return
		}
		a.consts[name] = v
	case "map":
		spec := MapSpec{Name: a.word()}
		typ := a.word()
		fields := [3]string{a.word(), a.word(), a.word()}
		if spec.Name == "" || typ == "" || a.pos != len(a.line) || !isNumber(fields[0]) || !isNumber(fields[1]) || !isNumber(fields[2]) {
			a.failf("bad directive %q: want .map NAME TYPE KEY_SIZE VALUE_SIZE MAX_ENTRIES", a.line)
			return
		}
		if spec.Type = MapType(slices.Index(mapTypeNames[:], typ)); spec.Type < 0 {
			a.failf("ebpf: unknown map type %q", typ)
			return
		}
		for k, size := range []*uint32{&spec.KeySize, &spec.ValueSize, &spec.MaxEntries} {
			n, err := strconv.ParseUint(fields[k], 10, 32)
			if err != nil {
				a.failf("map %q: size %s does not fit in 32 bits", spec.Name, fields[k])
				return
			}
			*size = uint32(n)
		}
		if _, dup := a.mapIdx[spec.Name]; dup {
			a.failf("duplicate map %q", spec.Name)
			return
		}
		a.mapIdx[spec.Name] = len(a.f.Maps)
		a.f.Maps, a.f.mapLines = append(a.f.Maps, spec), append(a.f.mapLines, a.n)
	default:
		a.failf("unknown directive %q", a.line[:a.pos])
	}
}

// statement assembles a label or an instruction line.
func (a *assembler) statement() {
	switch w := a.word(); {
	case w != "" && a.next(":"):
		if _, dup := a.labels[w]; dup {
			a.failf("duplicate label %q", w)
		}
		a.labels[w] = len(a.f.Insns)
	case w == "exit":
		a.emit(Exit())
	case w == "call":
		a.emit(Call(a.helper()))
	case w == "goto":
		a.jump(Ja(0))
	case w == "if":
		dst, w32 := a.reg("rw")
		op := a.sym(&jmpSymbol)
		src, isReg, imm := a.value("rw")
		if a.word() != "goto" {
			a.bad()
		}
		switch {
		case w32 && isReg:
			a.jump(Jmp32Reg(op, dst, src, 0))
		case w32:
			a.jump(Jmp32Imm(op, dst, imm, 0))
		case isReg:
			a.jump(JmpReg(op, dst, src, 0))
		default:
			a.jump(JmpImm(op, dst, imm, 0))
		}
	case w == "lock":
		size, base, off := a.mem()
		a.expect("+=")
		if src, _ := a.reg("r"); size >= 4 {
			a.emit(XAdd(size, base, src, off))
		} else {
			a.bad()
		}
	case w == "":
		size, base, off := a.mem()
		a.expect("=")
		if src, isReg, imm := a.value("r"); isReg {
			a.emit(Stx(size, base, src, off))
		} else {
			a.emit(StImm(size, base, off, imm))
		}
	default:
		a.pos = 0
		a.assign()
	}
	if a.pos != len(a.line) { // a line has no trailing blanks
		a.bad()
	}
}

// assign assembles the lines that start with a register: ALU operations
// in either width, negation, loads, map references and 64-bit immediates.
func (a *assembler) assign() {
	dst, w32 := a.reg("rw")
	op := a.sym(&aluSymbol)
	mov64 := op == ALUMov && !w32
	a.blank()
	if mov64 && strings.HasPrefix(a.line[a.pos:], "map(") {
		a.pos += len("map(")
		name := a.word()
		idx, ok := a.mapIdx[name]
		if !ok {
			a.failf("undeclared map %q", name)
		}
		a.expect(")")
		a.emit(LoadMapFD(dst, int32(idx))...)
		return
	}
	if mov64 && strings.HasPrefix(a.line[a.pos:], "*") {
		size, base, off := a.mem()
		a.emit(Ldx(size, dst, base, off))
		return
	}
	start := a.pos
	sign, word := a.operand()
	switch {
	case op == ALUMov && sign == '-' && isRegister(word, "rw"):
		if a.regNum(word) != dst {
			a.failf("negation requires the same source and destination register")
		}
		if w32 {
			a.emit(Neg32(dst))
		} else {
			a.emit(Neg(dst))
		}
		return
	case mov64 && a.word() == "ll":
		a.emit(LoadImm64(dst, uint64(a.imm(sign, word, 64)))...)
		return
	}
	a.pos = start
	src, isReg, imm := a.value("rw")
	switch {
	case w32 && isReg:
		a.emit(ALU32Reg(op, dst, src))
	case w32:
		a.emit(ALU32Imm(op, dst, imm))
	case isReg:
		a.emit(ALUReg(op, dst, src))
	default:
		a.emit(ALUImm(op, dst, imm))
	}
}

// mem reads a memory operand, *(uN *)(rX ± off).
func (a *assembler) mem() (size int, base uint8, off int16) {
	a.expect("*", "(")
	name := a.word()
	for _, w := range widths {
		if w.name == name {
			size = w.bytes
		}
	}
	a.expect("*", ")", "(")
	base, _ = a.reg("r")
	sign, word := a.operand()
	a.expect(")")
	if size == 0 || sign == 0 {
		a.bad()
	}
	v := a.imm(sign, word, 32)
	if v > 32767 || v < -32768 {
		a.failf("offset %d out of range", v)
	}
	return size, base, int16(v)
}

// helper reads a helper's name or number.
func (a *assembler) helper() int32 {
	sign, word := a.operand()
	for n, h := range helpers {
		if sign == 0 && word != "" && h.name == word {
			return int32(n)
		}
	}
	return int32(a.imm(sign, word, 32))
}

// value reads an operand: a register spelled with one of letters, or an
// immediate that fits in 32 bits.
func (a *assembler) value(letters string) (reg uint8, isReg bool, imm int32) {
	sign, word := a.operand()
	if sign == 0 && isRegister(word, letters) {
		return a.regNum(word), true, 0
	}
	return 0, false, int32(a.imm(sign, word, 32))
}

// imm resolves a signed word, a named constant or a number, to a value
// that fits in bits.
func (a *assembler) imm(sign byte, word string, bits int) int64 {
	v, named := a.consts[word]
	if !named {
		u, err := strconv.ParseUint(word, 0, 64)
		if err != nil {
			a.failf("bad immediate %q", word)
		}
		v = int64(u)
	}
	if sign == '-' {
		v = -v
	}
	if bits == 32 && (v > 0xffffffff || v < -(1<<31)) {
		if named {
			a.failf("constant %s is %d, which does not fit in 32 bits", word, v)
		} else {
			a.failf("immediate %d does not fit in 32 bits", v)
		}
	}
	return v
}

// isRegister reports whether word spells a register: one of letters, then
// decimal digits and nothing else.
func isRegister(word, letters string) bool {
	return word != "" && strings.IndexByte(letters, word[0]) >= 0 && strings.TrimLeft(word[1:], "0123456789") == ""
}

// regNum is the number of the register name spells.
func (a *assembler) regNum(name string) uint8 {
	n, err := strconv.Atoi(name[1:])
	if err != nil || n >= NumRegs {
		a.failf("bad register %s", name)
	}
	return uint8(n)
}

// reg reads a register, one of letters then decimal digits, and reports
// whether it is a w register.
func (a *assembler) reg(letters string) (n uint8, w32 bool) {
	a.blank()
	end := a.pos
	for end < len(a.line) && (end == a.pos || '0' <= a.line[end] && a.line[end] <= '9') {
		end++
	}
	name := a.line[a.pos:end]
	if len(name) < 2 || !isRegister(name, letters) {
		a.bad()
		return 0, false
	}
	a.pos = end
	return a.regNum(name), name[0] == 'w'
}

// sym reads the longest spelling in table and returns its operation.
func (a *assembler) sym(table *[16]string) (op uint8) {
	a.blank()
	n := 0
	for i, s := range table {
		if len(s) > n && strings.HasPrefix(a.line[a.pos:], s) {
			op, n = uint8(i)<<4, len(s)
		}
	}
	if n == 0 {
		a.bad()
	}
	a.pos += n
	return op
}

// operand reads a word after an optional sign.
func (a *assembler) operand() (sign byte, word string) {
	if a.next("-") {
		sign = '-'
	} else if a.next("+") {
		sign = '+'
	}
	if word = a.word(); word == "" {
		a.bad()
	}
	return sign, word
}

// word reads a run of letters, digits and underscores.
func (a *assembler) word() string {
	a.blank()
	start := a.pos
	for a.pos < len(a.line) && isWordByte(a.line[a.pos]) {
		a.pos++
	}
	return a.line[start:a.pos]
}

func (a *assembler) next(s string) (ok bool) {
	a.blank()
	if ok = strings.HasPrefix(a.line[a.pos:], s); ok {
		a.pos += len(s)
	}
	return ok
}

func (a *assembler) expect(toks ...string) {
	for _, t := range toks {
		if !a.next(t) {
			a.bad()
		}
	}
}

// blanks separate tokens: space, tab, newline, form feed and carriage
// return, the set RE2 spells \s. A vertical tab is not one.
const blanks = " \t\n\f\r"

func (a *assembler) blank() {
	for a.pos < len(a.line) && strings.IndexByte(blanks, a.line[a.pos]) >= 0 {
		a.pos++
	}
}

func (a *assembler) emit(ins ...Instruction) {
	a.f.Insns = append(a.f.Insns, ins...)
	a.f.lines = append(a.f.lines, a.n, a.n)[:len(a.f.Insns)] // ins is one slot or an LDDW pair
}

// jump emits ins against the label that ends the line, resolved once every
// label is known.
func (a *assembler) jump(ins Instruction) {
	a.fixups = append(a.fixups, fixup{len(a.f.Insns), a.word(), a.n})
	a.emit(ins)
}

func (a *assembler) bad() { a.failf("cannot parse %q", a.line) }

// failf records the line's error, unless an earlier one stands.
func (a *assembler) failf(format string, args ...any) {
	if a.err == nil {
		e := reject(-1, format, args...)
		e.line, a.err = a.n, e
	}
}

func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// isNumber reports whether s is a non-empty run of decimal digits.
func isNumber(s string) bool { return s != "" && strings.TrimLeft(s, "0123456789") == "" }

// Instantiate creates the file's declared maps (reusing any supplied in
// existing by name — this is how a userspace agent and a kernel policy share
// a Map), registers them in a fresh MapTable in declaration order, and
// returns instructions whose pseudo LDDW immediates are valid fds in that
// table: the form Load takes.
func (f *AsmFile) Instantiate(existing map[string]*Map) ([]Instruction, map[string]*Map, *MapTable, error) {
	maps := make(map[string]*Map, len(f.Maps))
	table := NewMapTable()
	for _, spec := range f.Maps {
		m, err := bindMap(spec, existing)
		if err != nil {
			return nil, nil, nil, err
		}
		maps[spec.Name] = m
		table.Register(m)
	}
	insns := slices.Clone(f.Insns)
	for i := 0; i < len(insns); i++ {
		if ins := &insns[i]; ins.IsLDDW() {
			if ins.Src == PseudoMapFD {
				if ins.Imm < 0 || int(ins.Imm) >= len(f.Maps) {
					return nil, nil, nil, fmt.Errorf("ebpf: %w", reject(i, "bad map reference %d", ins.Imm))
				}
				ins.Imm += firstFD
			}
			i++
		}
	}
	return insns, maps, table, nil
}

// Text renders the assembled file back to .syr source that re-assembles
// to the identical instruction stream and map declarations — the
// disassembler half of the round-trip contract (`syrup-policy disasm`).
// Jump offsets become generated labels so the output survives editing
// and re-assembly.
func (f *AsmFile) Text() string { return render(f.Insns, f.Maps, nil) }

// TextSource renders a bound program's stream back to assemblable .syr
// source: its maps' declarations, then the stream, whose map references
// render as map(name).
func (p *Program) TextSource() string { return p.text(nil) }

// text is TextSource with note's comment on each instruction line.
func (p *Program) text(note func(pc int) string) string {
	specs := make([]MapSpec, len(p.maps))
	for i, m := range p.maps {
		specs[i] = m.spec
	}
	return render(p.insns, specs, note)
}

// render is the one stream loop: the map declarations, then a line per
// instruction, with an L<pc> label before every slot a jump lands on, the
// slot one past the last included. note, if set, ends the line of slot pc
// with a comment.
func render(insns []Instruction, maps []MapSpec, note func(pc int) string) string {
	var sb strings.Builder
	for _, s := range maps {
		fmt.Fprintf(&sb, ".map %s %s %d %d %d\n", s.Name, s.Type, s.KeySize, s.ValueSize, s.MaxEntries)
	}
	if len(maps) > 0 {
		sb.WriteString("\n")
	}
	labels := jumpLabels(insns)
	for pc := 0; pc <= len(insns); pc++ {
		if labels[pc] {
			fmt.Fprintf(&sb, "L%d:\n", pc)
		}
		if pc == len(insns) {
			break
		}
		text := insnText(insns, pc, maps, labels)
		if note != nil {
			text = fmt.Sprintf("%-32s ; %s", text, note(pc))
		}
		fmt.Fprintf(&sb, "  %s\n", text)
		if lddwPair(insns, pc) {
			pc++
		}
	}
	return sb.String()
}

// jumpLabels marks every slot, and the one past the last, that a jump
// lands on. The high half of an LDDW pair starts no line to carry its
// label, so a jump there does not re-assemble.
func jumpLabels(insns []Instruction) []bool {
	labels := make([]bool, len(insns)+1)
	for pc, ins := range insns {
		if t := pc + 1 + int(ins.Off); isJump(ins) && t >= 0 && t <= len(insns) {
			labels[t] = true
		}
	}
	return labels
}

// isJump reports whether ins renders with a goto: ja, or a conditional
// jump in either width.
func isJump(ins Instruction) bool {
	cond := jmpSymbol[ins.Op>>4] != ""
	return ins.Class() == ClassJMP32 && cond || ins.Class() == ClassJMP && (cond || ins.Op&0xf0 == JmpA)
}

// lddwPair reports whether the slot at pc starts an LDDW pair.
func lddwPair(insns []Instruction, pc int) bool { return insns[pc].IsLDDW() && pc+1 < len(insns) }

// insnText is the one instruction renderer: the line of the instruction at
// pc (of the pair, for an LDDW), which names a jump's target by its label
// and a map by map(name). An instruction the dialect cannot spell renders
// as <op 0x..> and a target past the labels as a signed offset, neither
// of which assembles.
func insnText(insns []Instruction, pc int, maps []MapSpec, labels []bool) string {
	ins, cls := insns[pc], insns[pc].Class()
	r, op, width := "r", ins.Op&0xf0, widths[ins.Op&0x18>>3].name
	if cls == ClassALU || cls == ClassJMP32 {
		r = "w"
	}
	switch cls {
	case ClassALU64, ClassALU:
		sym := aluSymbol[op>>4]
		switch {
		case op == ALUNeg:
			return fmt.Sprintf("%s%d = -%s%d", r, ins.Dst, r, ins.Dst)
		case sym != "" && ins.Op&SrcX != 0:
			return fmt.Sprintf("%s%d %s %s%d", r, ins.Dst, sym, r, ins.Src)
		case sym != "":
			return fmt.Sprintf("%s%d %s %d", r, ins.Dst, sym, ins.Imm)
		}
	case ClassLD:
		switch {
		case !lddwPair(insns, pc):
		case ins.Src != PseudoMapFD:
			return fmt.Sprintf("r%d = %d ll", ins.Dst, Imm64(ins, insns[pc+1]))
		case ins.Imm >= 0 && int(ins.Imm) < len(maps):
			return fmt.Sprintf("r%d = map(%s)", ins.Dst, maps[ins.Imm].Name)
		}
	case ClassLDX:
		return fmt.Sprintf("r%d = *(%s *)(r%d %+d)", ins.Dst, width, ins.Src, ins.Off)
	case ClassST:
		return fmt.Sprintf("*(%s *)(r%d %+d) = %d", width, ins.Dst, ins.Off, ins.Imm)
	case ClassSTX:
		if ins.Op&0xe0 == ModeATOMIC {
			return fmt.Sprintf("lock *(%s *)(r%d %+d) += r%d", width, ins.Dst, ins.Off, ins.Src)
		}
		return fmt.Sprintf("*(%s *)(r%d %+d) = r%d", width, ins.Dst, ins.Off, ins.Src)
	case ClassJMP, ClassJMP32:
		target := fmt.Sprintf("%+d", ins.Off)
		if t := pc + 1 + int(ins.Off); t >= 0 && t < len(labels) && labels[t] {
			target = fmt.Sprintf("L%d", t)
		}
		sym := jmpSymbol[op>>4]
		switch {
		case cls == ClassJMP && op == JmpExit:
			return "exit"
		case cls == ClassJMP && op == JmpCall:
			if h, err := helperAt(ins.Imm); err == nil {
				return "call " + h.name
			}
			return fmt.Sprintf("call %d", ins.Imm)
		case cls == ClassJMP && op == JmpA:
			return "goto " + target
		case sym != "" && ins.Op&SrcX != 0:
			return fmt.Sprintf("if %s%d %s %s%d goto %s", r, ins.Dst, sym, r, ins.Src, target)
		case sym != "":
			return fmt.Sprintf("if %s%d %s %d goto %s", r, ins.Dst, sym, ins.Imm, target)
		}
	}
	return fmt.Sprintf("<op %#x>", ins.Op)
}
