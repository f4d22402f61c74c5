package ebpf

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// loadRaw loads raw instructions with an optional map table.
func loadRaw(t *testing.T, insns []Instruction, table *MapTable) (*Program, error) {
	t.Helper()
	return Load("test", insns, LoadOptions{MapTable: table})
}

func wantReject(t *testing.T, insns []Instruction, table *MapTable, fragment string) {
	t.Helper()
	_, err := loadRaw(t, insns, table)
	if err == nil {
		t.Fatalf("verifier accepted unsafe program (wanted error containing %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
}

func wantAccept(t *testing.T, insns []Instruction, table *MapTable) *Program {
	t.Helper()
	p, err := loadRaw(t, insns, table)
	if err != nil {
		t.Fatalf("verifier rejected safe program: %v", err)
	}
	return p
}

func u64MapTable(t *testing.T, entries uint32) (*MapTable, *Map, int32) {
	t.Helper()
	m := MustNewMap(MapSpec{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: entries})
	tb := NewMapTable()
	fd := tb.Register(m)
	return tb, m, fd
}

func TestVerifierRejectsEmptyAndOversized(t *testing.T) {
	if _, err := Load("e", nil, LoadOptions{}); err == nil {
		t.Fatal("empty program accepted")
	}
	big := make([]Instruction, MaxInsns+1)
	for i := range big {
		big[i] = MovImm(R0, 0)
	}
	big[len(big)-1] = Exit()
	if _, err := Load("big", big, LoadOptions{}); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestVerifierAcceptsTrivialReturn(t *testing.T) {
	wantAccept(t, []Instruction{MovImm(R0, 7), Exit()}, nil)
}

func TestVerifierRejectsUninitializedR0AtExit(t *testing.T) {
	wantReject(t, []Instruction{Exit()}, nil, "uninitialized R0")
}

func TestVerifierRejectsUninitializedRegRead(t *testing.T) {
	wantReject(t, []Instruction{MovReg(R0, R5), Exit()}, nil, "!read_ok")
}

func TestVerifierRejectsWriteToR10(t *testing.T) {
	wantReject(t, []Instruction{MovImm(R10, 0), Exit()}, nil, "cannot write R10")
}

func TestVerifierRejectsFallOffEnd(t *testing.T) {
	wantReject(t, []Instruction{MovImm(R0, 0)}, nil, "fell off the end")
}

func TestVerifierRejectsPointerReturn(t *testing.T) {
	wantReject(t, []Instruction{MovReg(R0, R10), Exit()}, nil, "leak")
}

func TestVerifierRejectsCtxReturn(t *testing.T) {
	wantReject(t, []Instruction{MovReg(R0, R1), Exit()}, nil, "leak")
}

func TestVerifierRejectsUncheckedPacketAccess(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		Ldx(1, R0, R2, 0), // no bounds check
		Exit(),
	}, nil, "bounds check")
}

func TestVerifierAcceptsCheckedPacketAccess(t *testing.T) {
	wantAccept(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),    // r2 = data
		Ldx(8, R3, R1, CtxOffDataEnd), // r3 = data_end
		MovReg(R4, R2),
		ALUImm(ALUAdd, R4, 8),
		JmpReg(JmpGt, R4, R3, 2), // if data+8 > end goto pass
		Ldx(8, R0, R2, 0),        // safe 8-byte read
		Exit(),
		MovImm(R0, int32(-1)),
		Exit(),
	}, nil)
}

func TestVerifierRejectsAccessBeyondCheckedRange(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		Ldx(8, R3, R1, CtxOffDataEnd),
		MovReg(R4, R2),
		ALUImm(ALUAdd, R4, 8),
		JmpReg(JmpGt, R4, R3, 2),
		Ldx(8, R0, R2, 4), // bytes 4..12, but only 8 proven
		Exit(),
		MovImm(R0, 0),
		Exit(),
	}, nil, "outside verified range")
}

func TestVerifierPacketCheckSymmetricForm(t *testing.T) {
	// if data_end >= data+16 → 16 bytes safe on taken branch
	wantAccept(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		Ldx(8, R3, R1, CtxOffDataEnd),
		MovReg(R4, R2),
		ALUImm(ALUAdd, R4, 16),
		JmpReg(JmpGe, R3, R4, 2), // if end >= data+16 goto ok
		MovImm(R0, 0),
		Exit(),
		Ldx(8, R0, R2, 8), // ok: bytes 8..16
		Exit(),
	}, nil)
}

func TestVerifierRejectsNegativePacketOffset(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		Ldx(8, R3, R1, CtxOffDataEnd),
		MovReg(R4, R2),
		ALUImm(ALUAdd, R4, 8),
		JmpReg(JmpGt, R4, R3, 2),
		Ldx(8, R0, R2, -4),
		Exit(),
		MovImm(R0, 0),
		Exit(),
	}, nil, "packet access")
}

func TestVerifierRejectsStackOutOfBounds(t *testing.T) {
	wantReject(t, []Instruction{
		StImm(8, R10, -520, 1),
		MovImm(R0, 0),
		Exit(),
	}, nil, "out of bounds")
	wantReject(t, []Instruction{
		StImm(8, R10, -4, 1), // crosses fp upward
		MovImm(R0, 0),
		Exit(),
	}, nil, "out of bounds")
}

func TestVerifierRejectsUninitializedStackRead(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(8, R0, R10, -8),
		Exit(),
	}, nil, "uninitialized stack")
}

func TestVerifierAcceptsStackWriteThenRead(t *testing.T) {
	wantAccept(t, []Instruction{
		StImm(8, R10, -8, 99),
		Ldx(8, R0, R10, -8),
		Exit(),
	}, nil)
}

func TestVerifierRejectsPartiallyInitializedStackRead(t *testing.T) {
	wantReject(t, []Instruction{
		StImm(4, R10, -8, 99), // init bytes -8..-4
		Ldx(8, R0, R10, -8),   // reads -8..0
		Exit(),
	}, nil, "uninitialized stack")
}

func TestVerifierSpillFillPreservesPointerType(t *testing.T) {
	// Spill ctx pointer, fill it back, then use it as ctx.
	wantAccept(t, []Instruction{
		Stx(8, R10, R1, -8),
		Ldx(8, R2, R10, -8),
		Ldx(8, R3, R2, CtxOffData), // works only if type survived the spill
		MovImm(R0, 0),
		Exit(),
	}, nil)
}

func TestVerifierRejectsMisalignedPointerSpill(t *testing.T) {
	wantReject(t, []Instruction{
		Stx(8, R10, R1, -12),
		MovImm(R0, 0),
		Exit(),
	}, nil, "8-byte aligned")
}

func TestVerifierScalarOverwriteDemotesSpill(t *testing.T) {
	// Spill ctx, clobber the slot with a scalar, fill, then try ctx load:
	// the filled value must be a scalar, so the ctx load must fail.
	wantReject(t, []Instruction{
		Stx(8, R10, R1, -8),
		StImm(8, R10, -8, 0),
		Ldx(8, R2, R10, -8),
		Ldx(8, R3, R2, CtxOffData),
		MovImm(R0, 0),
		Exit(),
	}, nil, "scalar")
}

func TestVerifierRejectsPointerLeakToMapValue(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := []Instruction{
		StImm(4, R10, -4, 0),
	}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 2),
		Stx(8, R0, R10, 0), // store fp into map value = leak
		Ja(0),
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "leaking")
}

func TestVerifierRequiresNullCheckOnMapValue(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		Ldx(8, R0, R0, 0), // deref without null check
		Exit(),
	)
	wantReject(t, insns, tb, "null check")
}

func TestVerifierAcceptsNullCheckedMapValue(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 2),
		Ldx(8, R0, R0, 0),
		Exit(),
		MovImm(R0, 0),
		Exit(),
	)
	wantAccept(t, insns, tb)
}

func TestVerifierNullCheckPropagatesThroughCopies(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		MovReg(R6, R0), // copy before the check
		JmpImm(JmpEq, R0, 0, 2),
		Ldx(8, R0, R6, 0), // deref the copy: must be allowed
		Exit(),
		MovImm(R0, 0),
		Exit(),
	)
	wantAccept(t, insns, tb)
}

func TestVerifierRejectsMapValueOOB(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1) // 8-byte values
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 2),
		Ldx(8, R0, R0, 4), // bytes 4..12 of an 8-byte value
		Exit(),
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "outside value size")
}

func TestVerifierRejectsBadCtxAccess(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(8, R0, R1, 4), // misaligned/undefined ctx field
		Exit(),
	}, nil, "context")
	wantReject(t, []Instruction{
		Stx(8, R1, R10, 0), // write to ctx
		MovImm(R0, 0),
		Exit(),
	}, nil, "read-only")
}

func TestVerifierRejectsHelperArgMismatch(t *testing.T) {
	// map_lookup with a scalar in r1
	wantReject(t, []Instruction{
		MovImm(R1, 5),
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		StImm(4, R10, -4, 0),
		Call(HelperMapLookup),
		MovImm(R0, 0),
		Exit(),
	}, nil, "want map handle")
}

func TestVerifierRejectsUninitializedKeyBytes(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := []Instruction{}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup), // key bytes never written
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "uninitialized stack")
}

func TestVerifierClobbersCallerSavedRegs(t *testing.T) {
	wantReject(t, []Instruction{
		MovImm(R3, 1),
		Call(HelperPrandomU32),
		MovReg(R0, R3), // r3 clobbered by the call
		Exit(),
	}, nil, "!read_ok")
}

func TestVerifierPreservesCalleeSavedRegs(t *testing.T) {
	wantAccept(t, []Instruction{
		MovImm(R6, 1),
		Call(HelperPrandomU32),
		MovReg(R0, R6),
		Exit(),
	}, nil)
}

func TestVerifierRejectsDivByZeroConstant(t *testing.T) {
	wantReject(t, []Instruction{
		MovImm(R0, 10),
		ALUImm(ALUDiv, R0, 0),
		Exit(),
	}, nil, "division by zero")
}

func TestVerifierRejectsUnknownHelper(t *testing.T) {
	wantReject(t, []Instruction{Call(999), MovImm(R0, 0), Exit()}, nil, "unknown helper")
}

func TestVerifierRejectsJumpOutOfRange(t *testing.T) {
	wantReject(t, []Instruction{
		JmpImm(JmpEq, R1, 0, 100),
		MovImm(R0, 0),
		Exit(),
	}, nil, "out of range")
	wantReject(t, []Instruction{
		MovImm(R2, 0),
		JmpImm(JmpEq, R2, 0, 100),
		MovImm(R0, 0),
		Exit(),
	}, nil, "out of range")
}

func TestVerifierRejectsJumpIntoLDDWPair(t *testing.T) {
	pair := LoadImm64(R2, 1)
	insns := []Instruction{
		MovImm(R3, 0),
		JmpImm(JmpNe, R3, 1, 1), // jumps into pair[1]
		pair[0], pair[1],
		MovImm(R0, 0),
		Exit(),
	}
	wantReject(t, insns, nil, "middle of an LDDW")
}

func TestVerifierBoundedLoopAccepted(t *testing.T) {
	// for i = 0; i < 10; i++ {} — constant-bounded, decidable branches.
	insns := []Instruction{
		MovImm(R6, 0),
		// loop:
		ALUImm(ALUAdd, R6, 1),
		JmpImm(JmpLt, R6, 10, -2),
		MovReg(R0, R6),
		Exit(),
	}
	p := wantAccept(t, insns, nil)
	ret, _, err := p.Run(&Ctx{}, nil)
	if err != nil || ret != 10 {
		t.Fatalf("loop ran wrong: ret=%d err=%v", ret, err)
	}
}

func TestVerifierUnboundedLoopRejected(t *testing.T) {
	// while (prandom() != 0) {} — unknowable branch each iteration; the
	// analysis budget must trip.
	insns := []Instruction{
		Call(HelperPrandomU32),
		JmpImm(JmpNe, R0, 0, -2),
		MovImm(R0, 0),
		Exit(),
	}
	_, err := Load("loop", insns, LoadOptions{Budget: 10_000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("unbounded loop not rejected by budget: %v", err)
	}
}

func TestVerifierRejectsPointerArithmeticWithUnknownScalar(t *testing.T) {
	wantReject(t, []Instruction{
		MovReg(R6, R1), // save ctx across the call
		Call(HelperPrandomU32),
		MovReg(R3, R0),
		Ldx(8, R2, R6, CtxOffData),
		// r2 += r3 where r3 is unknown
		ALUReg(ALUAdd, R2, R3),
		MovImm(R0, 0),
		Exit(),
	}, nil, "unknown scalar")
}

func TestVerifierRejectsHugePointerOffset(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		ALUImm(ALUAdd, R2, 1<<30-1),
		ALUImm(ALUAdd, R2, 1<<30-1),
		MovImm(R0, 0),
		Exit(),
	}, nil, "offset")
}

func TestVerifierRejectsMulOnPointer(t *testing.T) {
	wantReject(t, []Instruction{
		MovReg(R2, R10),
		ALUImm(ALUMul, R2, 2),
		MovImm(R0, 0),
		Exit(),
	}, nil, "pointer ALU op")
}

func TestVerifierRejects32BitPointerMov(t *testing.T) {
	wantReject(t, []Instruction{
		ALU32Reg(ALUMov, R2, R1),
		MovImm(R0, 0),
		Exit(),
	}, nil, "32-bit MOV")
}

func TestVerifierTailCallRequiresProgArray(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1) // array, not prog_array
	insns := []Instruction{}
	insns = append(insns, LoadMapFD(R2, fd)...)
	insns = append(insns,
		MovImm(R3, 0),
		Call(HelperTailCall),
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "prog_array")
}

func TestVerifierDataHelperRejectsProgArray(t *testing.T) {
	pa := MustNewMap(MapSpec{Name: "pa", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4})
	tb := NewMapTable()
	fd := tb.Register(pa)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "prog_array")
}

func TestVerifierTailCallAccepted(t *testing.T) {
	pa := MustNewMap(MapSpec{Name: "pa", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4})
	tb := NewMapTable()
	fd := tb.Register(pa)
	insns := []Instruction{}
	insns = append(insns, LoadMapFD(R2, fd)...)
	insns = append(insns,
		MovImm(R3, 0),
		Call(HelperTailCall),
		MovImm(R0, 0),
		Exit(),
	)
	wantAccept(t, insns, tb)
}

func TestVerifierOrNullComparedToNonZeroRejected(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 5, 1), // compare or-null against 5
		MovImm(R0, 0),
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "compared against 0")
}

// The verifier may believe only what the machine computes. Two programs
// show what a folded constant that differs from the run-time value costs:
// at the commit before alu became the one table, the verifier folded a
// 32-bit shift with a 6-bit count mask where both engines use 5 bits, so
// `w3 = 1; w3 <<= 33` was 0 to the verifier and 2 to the machine.

// afterShiftBy33 is tail run with r3 = 2.
func afterShiftBy33(tail ...Instruction) []Instruction {
	return append([]Instruction{ALU32Imm(ALUMov, R3, 1), ALU32Imm(ALULsh, R3, 33)}, tail...)
}

// The arm a wrong constant prunes is never checked, and here it reads r7,
// which nothing wrote — on a run state that is deliberately not scrubbed.
func TestVerifierRejectsPrunedArmUninitRead(t *testing.T) {
	wantReject(t, afterShiftBy33(
		JmpImm(JmpEq, R3, 0, 2),
		MovReg(R0, R7),
		Exit(),
		MovImm(R0, -1), // PASS
		Exit(),
	), nil, "R7 !read_ok")
}

// A wrong constant folded into a stack pointer is a wrong fact: the
// pinned stack store trusts it and writes fp-8 while the machine's own
// pointer is fp-6.
func TestVerifierRejectsFoldedConstantIntoStackPointer(t *testing.T) {
	wantReject(t, afterShiftBy33(
		MovImm(R0, 0),
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -8),
		ALUReg(ALUAdd, R2, R3),
		StImm(8, R2, 0, 0x55),
		Exit(),
	), nil, "stack access at fp-6 size 8 out of bounds")
}

func TestVerifier32BitShiftMasksCountTo5Bits(t *testing.T) {
	p := wantAccept(t, afterShiftBy33(MovReg(R0, R3), Exit()), nil)
	for name, run := range map[string]func(*Ctx, *Env) (uint32, ExecStats, error){"Run": p.Run, "RunInterp": p.RunInterp} {
		if ret, _, err := run(&Ctx{}, nil); err != nil || ret != 2 {
			t.Errorf("%s = %d, %v; want 2", name, ret, err)
		}
	}
}

// An opcode alu does not define is rejected whatever its operands: before,
// only the constant fold looked, so `r0 = ctx->hash; r0 <0xe0>= 1` loaded
// and faulted on every run.
func TestVerifierRejectsUnknownALUOpOnUnknownScalar(t *testing.T) {
	wantReject(t, []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		{Op: ClassALU64 | 0xe0 | SrcK, Dst: R0, Imm: 1},
		Exit(),
	}, nil, "unknown ALU op")
}

// TestVerifierFoldMatchesRuntime holds the verifier's constant folding to
// the machine over seeded constant chains: the chain's run-time value v is
// taken from the reference decoding, and the same chain followed by
// `r4 = v ll; if r3 == r4 goto ok; r0 = r7; exit; ok: r0 = 0; exit` loads
// exactly when the verifier's constant for r3 equals v — otherwise it
// decides the branch the other way and walks into the uninitialized r7.
func TestVerifierFoldMatchesRuntime(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	ops := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUNeg, ALUMod, ALUXor, ALUMov, ALUArsh}
	const chains = 20000
	bad := 0
	for n := 0; n < chains; n++ {
		chain := LoadImm64(R3, rng.Uint64())
		for k := 1 + rng.IntN(3); k > 0; k-- {
			op, imm := ops[rng.IntN(len(ops))], int32(rng.IntN(130)-2)
			if imm == 0 && (op == ALUDiv || op == ALUMod) {
				imm = 1 // a zero constant divisor is rejected outright
			}
			ins := ALUImm(op, R3, imm)
			if rng.IntN(2) == 0 {
				ins = ALU32Imm(op, R3, imm)
			}
			chain = append(chain, ins)
		}
		p := wantAccept(t, append(append([]Instruction{}, chain...), MovReg(R0, R3), Exit()), nil)
		v, _, err := p.runRef(&Ctx{}, nil)
		if err != nil {
			t.Fatalf("constant chain faulted: %v\n%s", err, p.Disassemble())
		}
		probe := append(append(chain, LoadImm64(R4, v)...),
			JmpReg(JmpEq, R3, R4, 2),
			MovReg(R0, R7),
			Exit(),
			MovImm(R0, 0),
			Exit(),
		)
		if _, err := loadRaw(t, probe, nil); err != nil {
			if bad++; bad <= 3 {
				t.Errorf("verifier's constant differs from the run-time value %#x (%v):\n%s", v, err, DisassembleProgram(chain))
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d constant chains fold to a value the machine does not compute", bad, chains)
	}
}
