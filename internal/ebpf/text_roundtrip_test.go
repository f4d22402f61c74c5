package ebpf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The disassembler contract: Text() output must re-assemble to the
// bit-identical instruction stream and map declarations. syrup-policy
// disasm leans on this, so it is pinned for every instruction form and
// for verifier-accepted fuzz streams.

// rtCheck asserts src := f.Text() reassembles to the same AsmFile.
func rtCheck(t *testing.T, f *AsmFile) {
	t.Helper()
	src := f.Text()
	g, err := Assemble(src, nil)
	if err != nil {
		t.Fatalf("re-assemble failed: %v\nsource:\n%s", err, src)
	}
	if !reflect.DeepEqual(f.Insns, g.Insns) {
		t.Fatalf("instruction stream changed across round trip\nsource:\n%s\ngot:\n%s", src, g.Text())
	}
	if !reflect.DeepEqual(f.Maps, g.Maps) {
		t.Fatalf("map declarations changed across round trip: %+v vs %+v", f.Maps, g.Maps)
	}
	// And the rendering itself must be a fixed point.
	if again := g.Text(); again != src {
		t.Fatalf("Text not a fixed point:\nfirst:\n%s\nsecond:\n%s", src, again)
	}
}

// TestTextRoundTripForms covers every instruction form the assembler can
// produce, including the 32-bit (w-register) ALU and jump variants, a
// jump to the slot one past the last, and a loop's backward jump.
func TestTextRoundTripForms(t *testing.T) {
	var insns []Instruction
	// Every ALU op, imm and reg, 64- and 32-bit.
	for _, op := range []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUMod, ALUXor, ALUMov, ALUArsh} {
		insns = append(insns,
			ALUImm(op, R1, -17),
			ALUReg(op, R2, R3),
			ALU32Imm(op, R4, 255),
			ALU32Reg(op, R5, R6),
		)
	}
	insns = append(insns, Neg(R7), Neg32(R8))
	// Loads and stores at every width, register and immediate sources,
	// positive and negative offsets.
	for _, size := range []int{1, 2, 4, 8} {
		insns = append(insns,
			Ldx(size, R1, R2, -8),
			Ldx(size, R3, R10, 8),
			Stx(size, R10, R4, -16),
			StImm(size, R10, -24, -5),
		)
	}
	insns = append(insns, XAdd(4, R10, R1, -32), XAdd(8, R10, R2, -40))
	// 64-bit immediate loads, including one that needs the unsigned range.
	insns = append(insns, LoadImm64(R1, 0xdeadbeefcafef00d)...)
	insns = append(insns, LoadImm64(R2, 1)...)
	// Helper calls, by name and by raw number.
	insns = append(insns, Call(HelperMapLookup), Call(99))
	// Every jump op, imm and reg, both classes. Offsets stay small and
	// forward so targets land inside the tail padding below.
	for _, op := range []uint8{JmpEq, JmpNe, JmpGt, JmpGe, JmpLt, JmpLe, JmpSGt, JmpSGe, JmpSLt, JmpSLe, JmpSet} {
		insns = append(insns,
			JmpImm(op, R1, -3, 2),
			JmpReg(op, R2, R3, 1),
			Jmp32Imm(op, R4, 7, 2),
			Jmp32Reg(op, R5, R6, 1),
		)
	}
	insns = append(insns, Ja(1), MovImm(R0, 0), MovImm(R0, 1), MovImm(R0, 2), Exit())

	rtCheck(t, &AsmFile{Insns: insns})

	f, err := Assemble("r0 = 0\nif r0 == 0 goto end\nexit\nend:\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	rtCheck(t, f)

	// A backward jump: the label is generated above its jump.
	rtCheck(t, &AsmFile{Insns: []Instruction{
		MovImm(R1, 4),
		ALUImm(ALUSub, R1, 1),
		JmpImm(JmpGt, R1, 0, -2),
		MovImm(R0, 0),
		Exit(),
	}})
}

// TestTextRoundTripMaps covers map declarations and pseudo references,
// including two references to the same map.
func TestTextRoundTripMaps(t *testing.T) {
	src := `
.map counters array 4 8 16
.map flows hash 8 8 64

  *(u32 *)(r10 - 4) = 0
  r1 = map(counters)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto miss
  r6 = *(u64 *)(r0 + 0)
miss:
  r1 = map(flows)
  r1 = map(counters)
  r0 = PASS
  exit
`
	f, err := Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	rtCheck(t, f)
}

// FuzzAssembleMatchesOracle holds Assemble to the two references it is
// read against: the source and the text it renders. Of a file it accepts,
// each slot names a statement line of the source (not a blank, a comment,
// a label or a directive), one slot or LDDW pair per statement line in
// order; each map names its .map line; SourceLines counts the non-blank
// lines; and Text() passes rtCheck. The seeds are every shipped policy
// and every string literal of text_test.go, which holds the TestAssemble*
// sources; plain `go test` replays them, `make fuzz` runs on. A round
// trip cannot see two names of one table swapped, since the parser and
// the renderer read the same table: testdata/mutants shows which rows of
// text_test.go catch that.
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
		a, err := Assemble(src, nil)
		if err != nil {
			return
		}
		var stmts, maps []int // the source's statement and .map lines
		nonBlank := 0
		for i, line := range strings.Split(src, "\n") {
			for _, c := range []string{";", "#", "//"} {
				line, _, _ = strings.Cut(line, c)
			}
			switch line = strings.TrimSpace(line); {
			case line == "":
				continue
			case strings.HasPrefix(line, ".map"):
				maps = append(maps, i+1)
			case line[0] != '.' && !strings.HasSuffix(line, ":"):
				stmts = append(stmts, i+1)
			}
			nonBlank++
		}
		var slots []int // each statement's line, once per slot or LDDW pair
		for pc := 0; pc < len(a.Insns); pc++ {
			if a.Insns[pc].IsLDDW() && pc+1 < len(a.Insns) {
				if a.lines[pc+1] != a.lines[pc] {
					t.Fatalf("LDDW at slot %d spans lines %d and %d\nsource:\n%s", pc, a.lines[pc], a.lines[pc+1], src)
				}
				pc++
			}
			slots = append(slots, a.lines[pc])
		}
		if !slices.Equal(slots, stmts) || !slices.Equal(a.mapLines, maps) || a.SourceLines != nonBlank {
			t.Fatalf("slot lines %v, want %v; map lines %v, want %v; SourceLines %d, want %d\nsource:\n%s",
				slots, stmts, a.mapLines, maps, a.SourceLines, nonBlank, src)
		}
		rtCheck(t, a)
	})
}
