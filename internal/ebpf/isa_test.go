package ebpf

import (
	"strings"
	"testing"
)

// The ISA's semantics live in one place (alu and jumpTaken in isa.go) and
// every consumer — the verifier's folding, the walker under either
// decoding — evaluates through it, so comparing those with each other
// cannot catch a wrong arm. These tables can: every expected value is a
// literal worked out from the instruction-set definition (RFC 9669), not
// computed by any function of this package.

// TestALUTable: {op, dst, src, want in the 64-bit class, want in the 32-bit
// class}. The 32-bit class sees only the operands' low halves, masks shift
// counts with 31 instead of 63 and zero-extends its result; division by
// zero yields 0, modulo by zero leaves dst (truncated, in the 32-bit
// class); NEG ignores src.
func TestALUTable(t *testing.T) {
	for _, tc := range []struct {
		op             uint8
		dst, src       uint64
		want64, want32 uint64
	}{
		{ALULsh, 0x8123456789abcdef, 0x0, 0x8123456789abcdef, 0x89abcdef},
		{ALULsh, 0x8123456789abcdef, 0x1, 0x2468acf13579bde, 0x13579bde},
		{ALULsh, 0x8123456789abcdef, 0x1f, 0xc4d5e6f780000000, 0x80000000},
		{ALULsh, 0x8123456789abcdef, 0x20, 0x89abcdef00000000, 0x89abcdef},
		{ALULsh, 0x8123456789abcdef, 0x21, 0x13579bde00000000, 0x13579bde},
		{ALULsh, 0x8123456789abcdef, 0x3f, 0x8000000000000000, 0x80000000},
		{ALULsh, 0x8123456789abcdef, 0x40, 0x8123456789abcdef, 0x89abcdef},
		{ALULsh, 0x8123456789abcdef, 0xffffffffffffffff, 0x8000000000000000, 0x80000000},
		{ALULsh, 0x1, 0x21, 0x200000000, 0x2},
		{ALURsh, 0x8123456789abcdef, 0x0, 0x8123456789abcdef, 0x89abcdef},
		{ALURsh, 0x8123456789abcdef, 0x1, 0x4091a2b3c4d5e6f7, 0x44d5e6f7},
		{ALURsh, 0x8123456789abcdef, 0x1f, 0x102468acf, 0x1},
		{ALURsh, 0x8123456789abcdef, 0x20, 0x81234567, 0x89abcdef},
		{ALURsh, 0x8123456789abcdef, 0x21, 0x4091a2b3, 0x44d5e6f7},
		{ALURsh, 0x8123456789abcdef, 0x3f, 0x1, 0x1},
		{ALURsh, 0x8123456789abcdef, 0x40, 0x8123456789abcdef, 0x89abcdef},
		{ALURsh, 0x8123456789abcdef, 0xffffffffffffffff, 0x1, 0x1},
		{ALURsh, 0x8000000000000000, 0x3f, 0x1, 0x0},
		{ALUArsh, 0x8123456789abcdef, 0x0, 0x8123456789abcdef, 0x89abcdef},
		{ALUArsh, 0x8123456789abcdef, 0x1, 0xc091a2b3c4d5e6f7, 0xc4d5e6f7},
		{ALUArsh, 0x8123456789abcdef, 0x1f, 0xffffffff02468acf, 0xffffffff},
		{ALUArsh, 0x8123456789abcdef, 0x20, 0xffffffff81234567, 0x89abcdef},
		{ALUArsh, 0x8123456789abcdef, 0x21, 0xffffffffc091a2b3, 0xc4d5e6f7},
		{ALUArsh, 0x8123456789abcdef, 0x3f, 0xffffffffffffffff, 0xffffffff},
		{ALUArsh, 0x8123456789abcdef, 0x40, 0x8123456789abcdef, 0x89abcdef},
		{ALUArsh, 0x8123456789abcdef, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffff},
		{ALUArsh, 0x8000000000000000, 0x3f, 0xffffffffffffffff, 0x0},
		{ALUAdd, 0x8000000000000000, 0xffffffffffffffff, 0x7fffffffffffffff, 0xffffffff},
		{ALUAdd, 0xffffffffffffffff, 0xffffffffffffffff, 0xfffffffffffffffe, 0xfffffffe},
		{ALUAdd, 0x80000000, 0x80000000, 0x100000000, 0x0},
		{ALUAdd, 0x100000000, 0x80000000, 0x180000000, 0x80000000},
		{ALUAdd, 0xffffffffffffffff, 0x1, 0x0, 0x0},
		{ALUAdd, 0x0, 0x1, 0x1, 0x1},
		{ALUAdd, 0x7, 0x3, 0xa, 0xa},
		{ALUSub, 0x8000000000000000, 0xffffffffffffffff, 0x8000000000000001, 0x1},
		{ALUSub, 0xffffffffffffffff, 0xffffffffffffffff, 0x0, 0x0},
		{ALUSub, 0x80000000, 0x80000000, 0x0, 0x0},
		{ALUSub, 0x100000000, 0x80000000, 0x80000000, 0x80000000},
		{ALUSub, 0xffffffffffffffff, 0x1, 0xfffffffffffffffe, 0xfffffffe},
		{ALUSub, 0x0, 0x1, 0xffffffffffffffff, 0xffffffff},
		{ALUSub, 0x7, 0x3, 0x4, 0x4},
		{ALUMul, 0x8000000000000000, 0xffffffffffffffff, 0x8000000000000000, 0x0},
		{ALUMul, 0xffffffffffffffff, 0xffffffffffffffff, 0x1, 0x1},
		{ALUMul, 0x80000000, 0x80000000, 0x4000000000000000, 0x0},
		{ALUMul, 0x100000000, 0x80000000, 0x8000000000000000, 0x0},
		{ALUMul, 0xffffffffffffffff, 0x1, 0xffffffffffffffff, 0xffffffff},
		{ALUMul, 0x0, 0x1, 0x0, 0x0},
		{ALUMul, 0x7, 0x3, 0x15, 0x15},
		{ALUDiv, 0x7, 0x0, 0x0, 0x0},
		{ALUDiv, 0xffffffffffffffff, 0x0, 0x0, 0x0},
		{ALUDiv, 0x100000005, 0x0, 0x0, 0x0},
		{ALUDiv, 0x8000000000000000, 0xffffffffffffffff, 0x0, 0x0},
		{ALUDiv, 0xffffffffffffffff, 0x2, 0x7fffffffffffffff, 0x7fffffff},
		{ALUDiv, 0x100000007, 0x100000002, 0x1, 0x3},
		{ALUDiv, 0x80000000, 0x3, 0x2aaaaaaa, 0x2aaaaaaa},
		{ALUDiv, 0x64, 0x7, 0xe, 0xe},
		{ALUMod, 0x7, 0x0, 0x7, 0x7},
		{ALUMod, 0xffffffffffffffff, 0x0, 0xffffffffffffffff, 0xffffffff},
		{ALUMod, 0x100000005, 0x0, 0x100000005, 0x5},
		{ALUMod, 0x8000000000000000, 0xffffffffffffffff, 0x8000000000000000, 0x0},
		{ALUMod, 0xffffffffffffffff, 0x2, 0x1, 0x1},
		{ALUMod, 0x100000007, 0x100000002, 0x5, 0x1},
		{ALUMod, 0x80000000, 0x3, 0x2, 0x2},
		{ALUMod, 0x64, 0x7, 0x2, 0x2},
		{ALUOr, 0x8123456789abcdef, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffff},
		{ALUOr, 0x8123456789abcdef, 0x1000000ff, 0x8123456789abcdff, 0x89abcdff},
		{ALUOr, 0x8000000000000000, 0x80000000, 0x8000000080000000, 0x80000000},
		{ALUOr, 0x0, 0x0, 0x0, 0x0},
		{ALUAnd, 0x8123456789abcdef, 0xffffffffffffffff, 0x8123456789abcdef, 0x89abcdef},
		{ALUAnd, 0x8123456789abcdef, 0x1000000ff, 0x1000000ef, 0xef},
		{ALUAnd, 0x8000000000000000, 0x80000000, 0x0, 0x0},
		{ALUAnd, 0x0, 0x0, 0x0, 0x0},
		{ALUXor, 0x8123456789abcdef, 0xffffffffffffffff, 0x7edcba9876543210, 0x76543210},
		{ALUXor, 0x8123456789abcdef, 0x1000000ff, 0x8123456689abcd10, 0x89abcd10},
		{ALUXor, 0x8000000000000000, 0x80000000, 0x8000000080000000, 0x80000000},
		{ALUXor, 0x0, 0x0, 0x0, 0x0},
		{ALUNeg, 0x0, 0xdead, 0x0, 0x0},
		{ALUNeg, 0x1, 0xdead, 0xffffffffffffffff, 0xffffffff},
		{ALUNeg, 0x8000000000000000, 0xdead, 0x8000000000000000, 0x0},
		{ALUNeg, 0xffffffffffffffff, 0xdead, 0x1, 0x1},
		{ALUNeg, 0x80000000, 0xdead, 0xffffffff80000000, 0x80000000},
		{ALUNeg, 0x100000000, 0xdead, 0xffffffff00000000, 0x0},
		{ALUMov, 0x8123456789abcdef, 0x0, 0x0, 0x0},
		{ALUMov, 0x8123456789abcdef, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffff},
		{ALUMov, 0x8123456789abcdef, 0x80000000, 0x80000000, 0x80000000},
		{ALUMov, 0x8123456789abcdef, 0x100000000, 0x100000000, 0x0},
		{ALUMov, 0x8123456789abcdef, 0x8000000000000000, 0x8000000000000000, 0x0},
		{ALUMov, 0x8123456789abcdef, 0xfffffffffffffffe, 0xfffffffffffffffe, 0xfffffffe},
	} {
		if got, ok := alu(tc.op, true, tc.dst, tc.src); !ok || got != tc.want64 {
			t.Errorf("alu64 op %#x dst %#x src %#x = %#x, %v; want %#x", tc.op, tc.dst, tc.src, got, ok, tc.want64)
		}
		if got, ok := alu(tc.op, false, tc.dst, tc.src); !ok || got != tc.want32 {
			t.Errorf("alu32 op %#x dst %#x src %#x = %#x, %v; want %#x", tc.op, tc.dst, tc.src, got, ok, tc.want32)
		}
	}
	// 0xd0 (byte swap) is not implemented; 0xe0 and 0xf0 are not ALU ops.
	for _, op := range []uint8{0xd0, 0xe0, 0xf0} {
		if _, ok := alu(op, true, 1, 1); ok {
			t.Errorf("alu accepted op %#x", op)
		}
	}
}

// TestJumpTable: for each operand pair, exactly the listed comparisons
// branch, in the JMP class and in JMP32. This VM's JMP32 narrows only the
// signed comparisons to the operands' low 32 bits — equality, the unsigned
// orderings and the bit test read the full registers in both classes,
// where RFC 9669 narrows them too; the rows with bits above 31 set pin
// that.
func TestJumpTable(t *testing.T) {
	ops := []struct {
		op   uint8
		name string
	}{
		{JmpEq, "=="}, {JmpNe, "!="}, {JmpGt, ">"}, {JmpGe, ">="}, {JmpLt, "<"}, {JmpLe, "<="},
		{JmpSGt, "s>"}, {JmpSGe, "s>="}, {JmpSLt, "s<"}, {JmpSLe, "s<="}, {JmpSet, "&"},
	}
	for _, tc := range []struct {
		a, b       uint64
		jmp, jmp32 string
	}{
		{0x5, 0x5, "== >= <= s>= s<= &", "== >= <= s>= s<= &"},
		{0x0, 0x0, "== >= <= s>= s<=", "== >= <= s>= s<="},
		{0xffffffffffffffff, 0x1, "!= > >= s< s<= &", "!= > >= s< s<= &"},
		{0x1, 0xffffffffffffffff, "!= < <= s> s>= &", "!= < <= s> s>= &"},
		{0x8000000000000000, 0x0, "!= > >= s< s<=", "!= > >= s>= s<="},
		{0x100000000, 0x1, "!= > >= s> s>=", "!= > >= s< s<="},
		{0x1, 0x100000000, "!= < <= s< s<=", "!= < <= s> s>="},
		{0x80000000, 0x0, "!= > >= s> s>=", "!= > >= s< s<="},
		{0x80000000, 0x180000000, "!= < <= s< s<= &", "!= < <= s>= s<= &"},
		{0x180000000, 0x80000000, "!= > >= s> s>= &", "!= > >= s>= s<= &"},
		{0xffffffffffffffff, 0xffffffffffffffff, "== >= <= s>= s<= &", "== >= <= s>= s<= &"},
		{0xf0, 0xf, "!= > >= s> s>=", "!= > >= s> s>="},
		{0x100000000, 0x180000000, "!= < <= s< s<= &", "!= < <= s> s>= &"},
		{0x8000000000000000, 0x8000000000000001, "!= < <= s< s<= &", "!= < <= s< s<= &"},
	} {
		for _, o := range ops {
			for _, cls := range []struct {
				is32  bool
				taken string
			}{{false, tc.jmp}, {true, tc.jmp32}} {
				want := false
				for _, name := range strings.Fields(cls.taken) {
					want = want || name == o.name
				}
				if got := jumpTaken(o.op, tc.a, tc.b, cls.is32); got != want {
					t.Errorf("if %#x %s %#x (jmp32=%v) taken = %v, want %v", tc.a, o.name, tc.b, cls.is32, got, want)
				}
			}
		}
	}
	// ja, call, exit and the unassigned codes are not comparisons.
	for _, op := range []uint8{JmpA, JmpCall, JmpExit, 0xe0, 0xf0} {
		if jumpTaken(op, 1, 1, false) || jumpTaken(op, 1, 1, true) {
			t.Errorf("jumpTaken branched on op %#x", op)
		}
	}
}
