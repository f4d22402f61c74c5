package ebpf

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzAssembleMatchesOracle holds Assemble to assembleOracle, the
// regular-expression assembler it replaced, kept below unchanged but for
// its name, with the two name lookups it read (HelperByName,
// MapTypeByName) and the error type it built (asmError). Whatever the
// oracle accepts, Assemble accepts with the same maps, instructions and
// line count; whatever Assemble accepts, the oracle re-assembles from
// Text() to the same instructions and maps, so anything Assemble
// reads that the oracle did not is spelling, never meaning. The first
// property skips the sources narrowed names: forms the oracle read and
// Assemble refuses on purpose. The seeds are every shipped policy and
// every string literal of text_test.go, which holds the TestAssemble*
// sources; plain `go test` replays them, `make fuzz` runs on.
func FuzzAssembleMatchesOracle(f *testing.F) {
	policies, err := filepath.Glob("../policy/policies/*.syr")
	if err != nil || len(policies) == 0 {
		f.Fatalf("policy files: %v %v", policies, err)
	}
	for _, name := range policies {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	file, err := parser.ParseFile(token.NewFileSet(), "text_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(s)
		}
		return true
	})
	f.Fuzz(func(t *testing.T, src string) {
		want, werr := assembleOracle(src, nil)
		got, err := Assemble(src, nil)
		if werr == nil && !narrowed(src) {
			if err != nil {
				t.Fatalf("oracle accepts, Assemble rejects: %v\nsource:\n%s", err, src)
			}
			if !sameFile(got, want) {
				t.Fatalf("Assemble disagrees with the oracle\nsource:\n%s\ngot:\n%s\nwant:\n%s", src, got.Text(), want.Text())
			}
		}
		if err != nil {
			return
		}
		text := got.Text()
		back, err := assembleOracle(text, nil)
		if err != nil {
			t.Fatalf("oracle rejects Text(): %v\nsource:\n%s\nrendered:\n%s", err, src, text)
		}
		if !reflect.DeepEqual(back.Insns, got.Insns) || !reflect.DeepEqual(back.Maps, got.Maps) {
			t.Fatalf("oracle reads Text() as another program\nsource:\n%s\nrendered:\n%s", src, text)
		}
	})
}

// sameFile reports whether a and b agree on the fields the oracle
// defines: maps, instructions and source line count. The slot-to-line
// table is Assemble's own.
func sameFile(a, b *AsmFile) bool {
	return reflect.DeepEqual(a.Maps, b.Maps) && reflect.DeepEqual(a.Insns, b.Insns) && a.SourceLines == b.SourceLines
}

var signedRegister = regexp.MustCompile(`\b[rw][+-][0-9]`)

// narrowed reports whether src uses a form the oracle accepts and
// Assemble rejects, on purpose:
//   - a register spelled with a sign, which the oracle read through
//     strconv.Atoi (r+1 as r1, r-0 as r0): a register is r or w and digits;
//   - a line that starts with '.' and is neither a .const nor a .map in
//     the oracle's form, which the oracle skipped: a typo in a directive
//     is an error, not a declaration of nothing;
//   - a .const beyond 32 bits named on a line that is not a 64-bit load,
//     which the oracle truncated: a constant has its literal's range.
func narrowed(src string) bool {
	if signedRegister.MatchString(src) {
		return true
	}
	var lines []string
	wide := map[string]bool{}
	for _, s := range strings.Split(src, "\n") {
		for _, c := range []string{";", "#", "//"} {
			s, _, _ = strings.Cut(s, c)
		}
		s = strings.TrimSpace(s)
		switch m := reConst.FindStringSubmatch(s); {
		case m != nil:
			if v, err := strconv.ParseInt(m[2], 0, 64); err == nil && (v > 0xffffffff || v < -(1<<31)) {
				wide[m[1]] = true
			}
		case reMapDecl.MatchString(s):
		case strings.HasPrefix(s, "."):
			return true
		case !reLddw.MatchString(s):
			lines = append(lines, s)
		}
	}
	for _, s := range lines {
		for _, w := range strings.FieldsFunc(s, func(c rune) bool { return c > 0x7f || !isWordByte(byte(c)) }) {
			if wide[w] {
				return true
			}
		}
	}
	return false
}

// TestNarrowed pins what narrowed excludes from FuzzAssembleMatchesOracle's
// first property: each narrowing rule, and a near miss of each that both
// assemblers still read alike.
func TestNarrowed(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"r0 = r+1\nexit", true},
		{"r0 = r1\nexit", false},
		{".cosnt N 6\nr0 = 0\nexit", true},
		{".const N 6 7\nr0 = 0\nexit", true},
		{".map m array 4 8\nr0 = 0\nexit", true},
		{".mapm array 4 8 1\nr0 = 0\nexit", true},
		{".\nr0 = 0\nexit", true},
		{".const N 6\n.map m array 4 8 1\nr0 = N\nexit", false},
		{"r0 = 0 ; .cosnt is a comment here\nexit", false},
		{".const BIG 99999999999\nr0 = BIG\nexit", true},
		{".const BIG 99999999999\nif r0 > BIG goto out\nout:\nexit", true},
		{".const LOW -2147483649\nr0 = LOW\nexit", true},
		{".const BIG 99999999999\nr0 = BIG ll\nexit", false},
		{".const BIG 99999999999\nr0 = 0\nexit", false},
		{".const U32 0xffffffff\nr0 = U32\nexit", false},
		{".const BIG 99999999999\nBIGGER:\nr0 = 0\nexit", false},
	}
	for _, tc := range cases {
		if got := narrowed(tc.src); got != tc.want {
			t.Errorf("narrowed(%q) = %t, want %t", tc.src, got, tc.want)
		}
		// A source narrowed excludes is one the oracle accepts and
		// Assemble refuses; one it keeps, Assemble reads as the oracle does.
		want, werr := assembleOracle(tc.src, nil)
		got, err := Assemble(tc.src, nil)
		switch {
		case werr != nil:
			t.Errorf("oracle rejects %q: %v", tc.src, werr)
		case tc.want && err == nil:
			t.Errorf("Assemble accepts narrowed %q", tc.src)
		case !tc.want && (err != nil || !sameFile(got, want)):
			t.Errorf("Assemble reads %q otherwise than the oracle: %v", tc.src, err)
		}
	}
}

// HelperByName maps each helper's name to its number.
var HelperByName = func() map[string]int32 {
	m := make(map[string]int32, len(helpers))
	for n, h := range helpers {
		if h.name != "" {
			m[h.name] = int32(n)
		}
	}
	return m
}()

// MapTypeByName parses assembler map-type names.
func MapTypeByName(s string) (MapType, error) {
	switch s {
	case "array":
		return MapArray, nil
	case "hash":
		return MapHash, nil
	case "prog_array":
		return MapProgArray, nil
	}
	return 0, fmt.Errorf("ebpf: unknown map type %q", s)
}

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

type asmError struct {
	line int
	msg  string
}

func (e *asmError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

// assembleOracle parses source into an AsmFile. defines supplies (or overrides)
// named constants, which is how syrupd injects deploy-time parameters such
// as NUM_THREADS.
func assembleOracle(src string, defines map[string]int64) (*AsmFile, error) {
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
