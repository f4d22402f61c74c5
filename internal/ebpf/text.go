package ebpf

import (
	"fmt"
	"regexp"
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
// are predefined.

// AsmFile is the output of Assemble: instructions plus the maps they
// declare. LDDW pseudo instructions' Imm fields index Maps.
type AsmFile struct {
	Maps  []MapSpec
	Insns []Instruction
	// SourceLines counts non-empty, non-comment source lines — the LoC
	// metric Table 2 reports.
	SourceLines int
}

type asmError struct {
	line int
	msg  string
}

func (e *asmError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

var (
	reLabel   = regexp.MustCompile(`^(\w+):$`)
	reMapDecl = regexp.MustCompile(`^\.map\s+(\w+)\s+(\w+)\s+(\d+)\s+(\d+)\s+(\d+)$`)
	reConst   = regexp.MustCompile(`^\.const\s+(\w+)\s+(\S+)$`)
	reLoadMap = regexp.MustCompile(`^r(\d+)\s*=\s*map\((\w+)\)$`)
	reLddw    = regexp.MustCompile(`^r(\d+)\s*=\s*(\S+)\s+ll$`)
	reLoad    = regexp.MustCompile(`^r(\d+)\s*=\s*\*\(\s*(u8|u16|u32|u64)\s*\*\s*\)\s*\(\s*r(\d+)\s*([+-])\s*(\w+)\s*\)$`)
	reStore   = regexp.MustCompile(`^\*\(\s*(u8|u16|u32|u64)\s*\*\s*\)\s*\(\s*r(\d+)\s*([+-])\s*(\w+)\s*\)\s*=\s*(\S+)$`)
	reAtomic  = regexp.MustCompile(`^lock\s+\*\(\s*(u32|u64)\s*\*\s*\)\s*\(\s*r(\d+)\s*([+-])\s*(\w+)\s*\)\s*\+=\s*r(\d+)$`)
	reCondJmp = regexp.MustCompile(`^if\s+([rw])(\d+)\s*(==|!=|s>=|s<=|s>|s<|>=|<=|>|<|&)\s*(\S+)\s+goto\s+(\w+)$`)
	reGoto    = regexp.MustCompile(`^goto\s+(\w+)$`)
	reCall    = regexp.MustCompile(`^call\s+(\S+)$`)
	reNeg     = regexp.MustCompile(`^([rw])(\d+)\s*=\s*-\s*[rw](\d+)$`)
	reALU     = regexp.MustCompile(`^([rw])(\d+)\s*(s>>=|<<=|>>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|=)\s*(\S+)$`)
)

var aluBySymbol = map[string]uint8{
	"=": ALUMov, "+=": ALUAdd, "-=": ALUSub, "*=": ALUMul, "/=": ALUDiv,
	"%=": ALUMod, "&=": ALUAnd, "|=": ALUOr, "^=": ALUXor,
	"<<=": ALULsh, ">>=": ALURsh, "s>>=": ALUArsh,
}

var jmpBySymbol = map[string]uint8{
	"==": JmpEq, "!=": JmpNe, ">": JmpGt, ">=": JmpGe, "<": JmpLt,
	"<=": JmpLe, "s>": JmpSGt, "s>=": JmpSGe, "s<": JmpSLt, "s<=": JmpSLe,
	"&": JmpSet,
}

func sizeByName(s string) int {
	switch s {
	case "u8":
		return 1
	case "u16":
		return 2
	case "u32":
		return 4
	default:
		return 8
	}
}

type fixup struct {
	insn  int
	label string
	line  int
}

// Assemble parses source into an AsmFile. defines supplies (or overrides)
// named constants, which is how syrupd injects deploy-time parameters such
// as NUM_THREADS.
func Assemble(src string, defines map[string]int64) (*AsmFile, error) {
	f := &AsmFile{}
	consts := map[string]int64{
		"PASS": int64(VerdictPass),
		"DROP": int64(VerdictDrop),
	}
	// .const declarations are collected first so ordering in the file
	// doesn't matter, but defines always win.
	mapIdx := map[string]int{}
	labels := map[string]int{}
	var fixups []fixup

	lines := strings.Split(src, "\n")
	clean := make([]string, len(lines))
	for i, raw := range lines {
		s := raw
		for _, c := range []string{";", "#", "//"} {
			if idx := strings.Index(s, c); idx >= 0 {
				s = s[:idx]
			}
		}
		clean[i] = strings.TrimSpace(s)
	}

	// Pass 0: consts and map declarations.
	for i, s := range clean {
		if s == "" {
			continue
		}
		f.SourceLines++
		if m := reConst.FindStringSubmatch(s); m != nil {
			v, err := strconv.ParseInt(m[2], 0, 64)
			if err != nil {
				return nil, &asmError{i + 1, fmt.Sprintf("bad constant %q: %v", m[2], err)}
			}
			if _, overridden := defines[m[1]]; !overridden {
				consts[m[1]] = v
			}
			continue
		}
		if m := reMapDecl.FindStringSubmatch(s); m != nil {
			typ, err := MapTypeByName(m[2])
			if err != nil {
				return nil, &asmError{i + 1, err.Error()}
			}
			var sizes [3]uint32 // key, value, entries
			for k, field := range m[3:] {
				n, err := strconv.ParseUint(field, 10, 32)
				if err != nil {
					return nil, &asmError{i + 1, fmt.Sprintf("map %q: size %s does not fit in 32 bits", m[1], field)}
				}
				sizes[k] = uint32(n)
			}
			if _, dup := mapIdx[m[1]]; dup {
				return nil, &asmError{i + 1, fmt.Sprintf("duplicate map %q", m[1])}
			}
			mapIdx[m[1]] = len(f.Maps)
			f.Maps = append(f.Maps, MapSpec{Name: m[1], Type: typ, KeySize: sizes[0], ValueSize: sizes[1], MaxEntries: sizes[2]})
			continue
		}
	}
	for k, v := range defines {
		consts[k] = v
	}

	imm := func(line int, tok string, bits int) (int64, error) {
		if v, ok := consts[tok]; ok {
			return v, nil
		}
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			// Also accept unsigned forms like 0xffffffff.
			u, uerr := strconv.ParseUint(tok, 0, 64)
			if uerr != nil {
				return 0, &asmError{line, fmt.Sprintf("bad immediate %q", tok)}
			}
			v = int64(u)
		}
		if bits == 32 && (v > 0xffffffff || v < -(1<<31)) {
			return 0, &asmError{line, fmt.Sprintf("immediate %q does not fit in 32 bits", tok)}
		}
		return v, nil
	}
	regNum := func(line int, tok string) (uint8, error) {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 || n >= NumRegs {
			return 0, &asmError{line, fmt.Sprintf("bad register r%s", tok)}
		}
		return uint8(n), nil
	}
	offVal := func(line int, sign, tok string) (int16, error) {
		v, err := imm(line, tok, 32)
		if err != nil {
			return 0, err
		}
		if sign == "-" {
			v = -v
		}
		if v > 32767 || v < -32768 {
			return 0, &asmError{line, fmt.Sprintf("offset %d out of range", v)}
		}
		return int16(v), nil
	}

	// Pass 1: instructions.
	for i, s := range clean {
		line := i + 1
		if s == "" || strings.HasPrefix(s, ".") {
			continue
		}
		if m := reLabel.FindStringSubmatch(s); m != nil {
			if _, dup := labels[m[1]]; dup {
				return nil, &asmError{line, fmt.Sprintf("duplicate label %q", m[1])}
			}
			labels[m[1]] = len(f.Insns)
			continue
		}
		switch {
		case s == "exit":
			f.Insns = append(f.Insns, Exit())
		case reCall.MatchString(s):
			m := reCall.FindStringSubmatch(s)
			var helper int32
			if n, ok := HelperByName[m[1]]; ok {
				helper = n
			} else {
				v, err := imm(line, m[1], 32)
				if err != nil {
					return nil, &asmError{line, fmt.Sprintf("unknown helper %q", m[1])}
				}
				helper = int32(v)
			}
			f.Insns = append(f.Insns, Call(helper))
		case reGoto.MatchString(s):
			m := reGoto.FindStringSubmatch(s)
			fixups = append(fixups, fixup{len(f.Insns), m[1], line})
			f.Insns = append(f.Insns, Ja(0))
		case reCondJmp.MatchString(s):
			m := reCondJmp.FindStringSubmatch(s)
			dst, err := regNum(line, m[2])
			if err != nil {
				return nil, err
			}
			op := jmpBySymbol[m[3]]
			class := uint8(ClassJMP)
			if m[1] == "w" {
				class = ClassJMP32
			}
			var ins Instruction
			if strings.HasPrefix(m[4], "r") || strings.HasPrefix(m[4], "w") {
				src, err := regNum(line, m[4][1:])
				if err != nil {
					return nil, err
				}
				ins = Instruction{Op: class | op | SrcX, Dst: dst, Src: src}
			} else {
				v, err := imm(line, m[4], 32)
				if err != nil {
					return nil, err
				}
				ins = Instruction{Op: class | op | SrcK, Dst: dst, Imm: int32(v)}
			}
			fixups = append(fixups, fixup{len(f.Insns), m[5], line})
			f.Insns = append(f.Insns, ins)
		case reLoadMap.MatchString(s):
			m := reLoadMap.FindStringSubmatch(s)
			dst, err := regNum(line, m[1])
			if err != nil {
				return nil, err
			}
			idx, ok := mapIdx[m[2]]
			if !ok {
				return nil, &asmError{line, fmt.Sprintf("undeclared map %q", m[2])}
			}
			f.Insns = append(f.Insns, LoadMapFD(dst, int32(idx))...)
		case reLddw.MatchString(s):
			m := reLddw.FindStringSubmatch(s)
			dst, err := regNum(line, m[1])
			if err != nil {
				return nil, err
			}
			v, err := imm(line, m[2], 64)
			if err != nil {
				return nil, err
			}
			pair := LoadImm64(dst, uint64(v))
			f.Insns = append(f.Insns, pair[0], pair[1])
		case reLoad.MatchString(s):
			m := reLoad.FindStringSubmatch(s)
			dst, err := regNum(line, m[1])
			if err != nil {
				return nil, err
			}
			src, err := regNum(line, m[3])
			if err != nil {
				return nil, err
			}
			off, err := offVal(line, m[4], m[5])
			if err != nil {
				return nil, err
			}
			f.Insns = append(f.Insns, Ldx(sizeByName(m[2]), dst, src, off))
		case reAtomic.MatchString(s):
			m := reAtomic.FindStringSubmatch(s)
			dst, err := regNum(line, m[2])
			if err != nil {
				return nil, err
			}
			off, err := offVal(line, m[3], m[4])
			if err != nil {
				return nil, err
			}
			src, err := regNum(line, m[5])
			if err != nil {
				return nil, err
			}
			f.Insns = append(f.Insns, XAdd(sizeByName(m[1]), dst, src, off))
		case reStore.MatchString(s):
			m := reStore.FindStringSubmatch(s)
			dst, err := regNum(line, m[2])
			if err != nil {
				return nil, err
			}
			off, err := offVal(line, m[3], m[4])
			if err != nil {
				return nil, err
			}
			size := sizeByName(m[1])
			if strings.HasPrefix(m[5], "r") {
				src, err := regNum(line, m[5][1:])
				if err != nil {
					return nil, err
				}
				f.Insns = append(f.Insns, Stx(size, dst, src, off))
			} else {
				v, err := imm(line, m[5], 32)
				if err != nil {
					return nil, err
				}
				f.Insns = append(f.Insns, StImm(size, dst, off, int32(v)))
			}
		case reNeg.MatchString(s):
			m := reNeg.FindStringSubmatch(s)
			dst, err := regNum(line, m[2])
			if err != nil {
				return nil, err
			}
			src, err := regNum(line, m[3])
			if err != nil {
				return nil, err
			}
			if dst != src {
				return nil, &asmError{line, "negation requires the same source and destination register"}
			}
			ins := Neg(dst)
			if m[1] == "w" {
				ins.Op = ClassALU | ALUNeg
			}
			f.Insns = append(f.Insns, ins)
		case reALU.MatchString(s):
			m := reALU.FindStringSubmatch(s)
			dst, err := regNum(line, m[2])
			if err != nil {
				return nil, err
			}
			op := aluBySymbol[m[3]]
			class := uint8(ClassALU64)
			if m[1] == "w" {
				class = ClassALU
			}
			if strings.HasPrefix(m[4], "r") || strings.HasPrefix(m[4], "w") {
				src, err := regNum(line, m[4][1:])
				if err != nil {
					return nil, err
				}
				f.Insns = append(f.Insns, Instruction{Op: class | op | SrcX, Dst: dst, Src: src})
			} else {
				v, err := imm(line, m[4], 32)
				if err != nil {
					return nil, err
				}
				f.Insns = append(f.Insns, Instruction{Op: class | op | SrcK, Dst: dst, Imm: int32(v)})
			}
		default:
			return nil, &asmError{line, fmt.Sprintf("cannot parse %q", s)}
		}
	}

	// Resolve labels.
	for _, fx := range fixups {
		target, ok := labels[fx.label]
		if !ok {
			return nil, &asmError{fx.line, fmt.Sprintf("undefined label %q", fx.label)}
		}
		off := target - fx.insn - 1
		if off > 32767 || off < -32768 {
			return nil, &asmError{fx.line, "jump offset out of range"}
		}
		f.Insns[fx.insn].Off = int16(off)
	}
	if len(f.Insns) == 0 {
		return nil, fmt.Errorf("ebpf: empty program")
	}
	return f, nil
}

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
					return nil, nil, nil, fmt.Errorf("ebpf: bad map reference %d", ins.Imm)
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
// Numeric jump offsets become generated labels so the output survives
// editing and re-assembly.
func (f *AsmFile) Text() string { return programText(f.Insns, f.Maps) }

// TextSource renders a bound program's stream back to assemblable .syr
// source: its maps' declarations, then the stream, whose map references
// render as map(name).
func (p *Program) TextSource() string {
	specs := make([]MapSpec, len(p.maps))
	for i, m := range p.maps {
		specs[i] = m.spec
	}
	return programText(p.insns, specs)
}

// programText is the shared renderer: map declarations, then the
// instruction stream with L<pc> labels at every jump target.
func programText(insns []Instruction, maps []MapSpec) string {
	var sb strings.Builder
	for _, s := range maps {
		fmt.Fprintf(&sb, ".map %s %s %d %d %d\n", s.Name, s.Type, s.KeySize, s.ValueSize, s.MaxEntries)
	}
	if len(maps) > 0 {
		sb.WriteString("\n")
	}
	targets := jumpTargets(insns)
	label := func(pc int) string { return fmt.Sprintf("L%d", pc) }
	for i := 0; i < len(insns); i++ {
		if targets[i] {
			fmt.Fprintf(&sb, "%s:\n", label(i))
		}
		ins := insns[i]
		if ins.IsLDDW() && i+1 < len(insns) {
			if ins.Src == PseudoMapFD {
				fmt.Fprintf(&sb, "  r%d = map(%s)\n", ins.Dst, maps[ins.Imm].Name)
			} else {
				fmt.Fprintf(&sb, "  r%d = %d ll\n", ins.Dst, Imm64(ins, insns[i+1]))
			}
			i++
			continue
		}
		cls := ins.Class()
		if (cls == ClassJMP || cls == ClassJMP32) && ins.Op&0xf0 != JmpExit && ins.Op&0xf0 != JmpCall {
			// Re-render the jump against its label instead of the numeric
			// offset Disassemble prints.
			text := Disassemble(ins, nil)
			tgt := i + 1 + int(ins.Off)
			if idx := strings.LastIndex(text, "goto "); idx >= 0 && tgt >= 0 && tgt < len(insns) {
				text = text[:idx] + "goto " + label(tgt)
			}
			fmt.Fprintf(&sb, "  %s\n", text)
			continue
		}
		fmt.Fprintf(&sb, "  %s\n", Disassemble(ins, nil))
	}
	// A jump target one past the last instruction, or inside an LDDW pair,
	// has no slot to label. Reachable code in a verified program cannot
	// produce either, but dead code after an early exit escapes the
	// verifier's analysis and can (the round-trip tests skip those).
	return sb.String()
}

// jumpTargets marks every slot some jump can land on.
func jumpTargets(insns []Instruction) []bool {
	t := make([]bool, len(insns)+1)
	for i, ins := range insns {
		cls := ins.Class()
		if cls != ClassJMP && cls != ClassJMP32 {
			continue
		}
		op := ins.Op & 0xf0
		if op == JmpExit || op == JmpCall {
			continue
		}
		if tgt := i + 1 + int(ins.Off); tgt >= 0 && tgt < len(t) {
			t[tgt] = true
		}
	}
	return t
}
