package ebpf

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// loadRaw loads raw instructions with an optional map table.
func loadRaw(t *testing.T, insns []Instruction, table *MapTable) (*Program, error) {
	t.Helper()
	return Load("test", insns, LoadOptions{MapTable: table})
}

// wantReject wants Load to refuse insns with an error that contains
// fragment and names a slot of the program. Where the program has a
// source form (its Text() re-assembles to the same stream), that source is
// refused at the same slot for the same reason, naming the line that holds
// the slot.
func wantReject(t *testing.T, insns []Instruction, table *MapTable, fragment string) {
	t.Helper()
	_, err := loadRaw(t, insns, table)
	if err == nil {
		t.Fatalf("verifier accepted unsafe program (wanted error containing %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
	var pe *posError
	if !errors.As(err, &pe) || pe.slot < 0 || pe.slot >= len(insns) {
		t.Fatalf("error %q names no slot of the program's %d", err, len(insns))
	}
	f := fdFile(insns, table)
	if f == nil || !textRenderable(f.Insns) {
		return
	}
	src := render(f.Insns, f.Maps, func(pc int) string { return fmt.Sprintf("slot %d", pc) })
	if g, aerr := Assemble(src, nil); aerr == nil && slices.Equal(g.Insns, f.Insns) {
		_, err := Verify("test", g)
		var se *posError
		if !errors.As(err, &se) || se.slot != pe.slot || se.reason != pe.reason {
			t.Fatalf("source form refused with %v, want %q at insn %d", err, pe.reason, pe.slot)
		}
		slot := pe.slot
		if slot > 0 && f.Insns[slot-1].IsLDDW() {
			slot-- // the high half of a pair is on its low half's line
		}
		lines := strings.Split(src, "\n")
		if se.line < 1 || se.line > len(lines) || !strings.HasSuffix(lines[se.line-1], fmt.Sprintf("; slot %d", slot)) {
			t.Fatalf("error %q does not name the line of slot %d:\n%s", err, slot, src)
		}
	}
}

// fdFile is the file Load verifies for insns: each map fd in table becomes
// the index of its map, declared once. It is nil if an fd names no map.
func fdFile(insns []Instruction, table *MapTable) *AsmFile {
	f := &AsmFile{Insns: slices.Clone(insns)}
	var maps []*Map
	for i := range f.Insns {
		ins := &f.Insns[i]
		if !ins.IsLDDW() || ins.Src != PseudoMapFD {
			continue
		}
		m := table.Get(ins.Imm)
		if m == nil {
			return nil
		}
		if ins.Imm = int32(slices.Index(maps, m)); ins.Imm < 0 {
			ins.Imm, maps, f.Maps = int32(len(maps)), append(maps, m), append(f.Maps, m.spec)
		}
	}
	return f
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

// lookupThen is a map_lookup_elem of key in map fd, through a key stored
// at fp-4, followed by tail.
func lookupThen(fd, key int32, tail ...Instruction) []Instruction {
	insns := append([]Instruction{StImm(4, R10, -4, key)}, LoadMapFD(R1, fd)...)
	return append(append(insns, MovReg(R2, R10), ALUImm(ALUAdd, R2, -4), Call(HelperMapLookup)), tail...)
}

// tailCallOr tail-calls slot of the prog_array fd and, only if the call
// returns (an empty slot), exits with ret. r1 stays the ctx.
func tailCallOr(fd, slot, ret int32) []Instruction {
	return append(LoadMapFD(R2, fd), MovImm(R3, slot), Call(HelperTailCall), MovImm(R0, ret), Exit())
}

// progArrayTable is a table whose one map is the prog_array name.
func progArrayTable(name string, entries uint32) (*MapTable, *Map, int32) {
	m := MustNewMap(MapSpec{Name: name, Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: entries})
	tb := NewMapTable()
	return tb, m, tb.Register(m)
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

// TestStructuralRejectionsNameTheirSlot: the checks before the verifier,
// and Instantiate's, name the slot they refuse, as the verifier does.
func TestStructuralRejectionsNameTheirSlot(t *testing.T) {
	lddw := LoadImm64(R1, 5)
	wantReject(t, []Instruction{MovImm(R0, 0), Exit(), lddw[0]}, nil, "ebpf: test: insn 2: truncated LDDW pair")
	wantReject(t, append([]Instruction{MovImm(R0, 0)}, LoadMapFD(R1, 99)...), nil, "ebpf: test: insn 1: bad map fd 99")
	f := &AsmFile{Insns: append(LoadMapFD(R1, 0), MovImm(R0, 0), Exit())}
	var pe *posError
	if _, err := Verify("test", f); !errors.As(err, &pe) || err.Error() != "ebpf: test: insn 0: bad map reference 0" {
		t.Fatalf("error %v, want a bad map reference at insn 0", err)
	}
	if _, _, _, err := f.Instantiate(nil); !errors.As(err, &pe) || err.Error() != "ebpf: insn 0: bad map reference 0" {
		t.Fatalf("Instantiate: error %v, want a bad map reference at insn 0", err)
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
	for _, read := range []Instruction{
		Ldx(8, R0, R2, 4), // bytes 4..12, but only 8 proven
		Ldx(1, R0, R2, 8), // byte 8, one past the 8 proven
	} {
		wantReject(t, []Instruction{
			Ldx(8, R2, R1, CtxOffData),
			Ldx(8, R3, R1, CtxOffDataEnd),
			MovReg(R4, R2),
			ALUImm(ALUAdd, R4, 8),
			JmpReg(JmpGt, R4, R3, 2),
			read,
			Exit(),
			MovImm(R0, 0),
			Exit(),
		}, nil, "outside verified range")
	}
}

func TestVerifierPacketCheckSymmetricForm(t *testing.T) {
	// if data_end >= data+16 → 16 bytes safe on taken branch, and no more
	prog := func(read Instruction) []Instruction {
		return []Instruction{
			Ldx(8, R2, R1, CtxOffData),
			Ldx(8, R3, R1, CtxOffDataEnd),
			MovReg(R4, R2),
			ALUImm(ALUAdd, R4, 16),
			JmpReg(JmpGe, R3, R4, 2), // if end >= data+16 goto ok
			MovImm(R0, 0),
			Exit(),
			read,
			Exit(),
		}
	}
	wantAccept(t, prog(Ldx(8, R0, R2, 8)), nil)                            // bytes 8..16
	wantReject(t, prog(Ldx(1, R0, R2, 16)), nil, "outside verified range") // byte 16
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
	wantReject(t, []Instruction{
		StImm(4, R10, -8, 99), // init bytes -8..-4
		Ldx(8, R0, R10, -8),   // reads -8..0
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

// TestVerifierScalarOverwriteDemotesSpill: a whole, aligned 8-byte scalar
// store demotes the spilled slot it overwrites to plain bytes, so the fill
// that follows is a scalar and the ctx load through it fails.
func TestVerifierScalarOverwriteDemotesSpill(t *testing.T) {
	t.Run("whole slot", func(t *testing.T) {
		wantReject(t, []Instruction{
			Stx(8, R10, R1, -8),
			StImm(8, R10, -8, 0),
			Ldx(8, R2, R10, -8),
			Ldx(4, R0, R2, CtxOffHash),
			Exit(),
		}, nil, "insn 3: memory access via scalar")
	})
}

// TestVerifierRefusesAPartialOverwriteOfASpill: any other store that
// touches a spilled slot is refused at the store, as the kernel refuses an
// attempt to corrupt a spilled pointer: it would leave the pointer's other
// bytes readable. The slot of a negative frame offset is its floor: fp-4
// is in fp-8's slot.
func TestVerifierRefusesAPartialOverwriteOfASpill(t *testing.T) {
	for _, tc := range []struct {
		name  string
		insns []Instruction
		want  string
	}{
		{"upper half", []Instruction{
			Stx(8, R10, R1, -8),
			StImm(4, R10, -4, 0),
			Ldx(8, R2, R10, -8),
			Ldx(4, R0, R2, CtxOffHash),
			Exit(),
		}, "insn 1: attempt to corrupt ctx pointer spilled at fp-8"},
		{"unaligned 8 bytes into the lower slot", []Instruction{
			Stx(8, R10, R1, -16),
			StImm(8, R10, -12, 0),
			Ldx(8, R2, R10, -16),
			Ldx(4, R0, R2, CtxOffHash),
			Exit(),
		}, "insn 1: attempt to corrupt ctx pointer spilled at fp-16"},
		{"2 bytes across the slot's top", []Instruction{
			Stx(8, R10, R1, -16),
			StImm(2, R10, -9, 0),
			Ldx(8, R2, R10, -16),
			Ldx(4, R0, R2, CtxOffHash),
			Exit(),
		}, "insn 1: attempt to corrupt ctx pointer spilled at fp-16"},
		{"lower half, then the upper half read", []Instruction{
			Stx(8, R10, R1, -8),
			StImm(4, R10, -8, 0),
			Ldx(4, R0, R10, -4),
			Exit(),
		}, "insn 1: attempt to corrupt ctx pointer spilled at fp-8"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantReject(t, tc.insns, nil, tc.want) })
	}
}

// TestVerifierReadsASpillOnlyByAFill: a spilled pointer's bytes are read
// back only by an aligned 8-byte load of its whole slot, which fills the
// pointer. Each other read of them is the pointer leak that exit and a
// pointer store refuse, so it is refused too, naming the slot: with ctx
// spilled at fp-8, a 4-byte load of its top half reads 0x30000, a helper
// copies its bytes into map memory, and an atomic add turns it into a
// scalar that a fill then returns.
func TestVerifierReadsASpillOnlyByAFill(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	helper := func(key, value, call int32) []Instruction {
		insns := []Instruction{Stx(8, R10, R1, -8), StImm(4, R10, -12, 0)}
		insns = append(insns, LoadMapFD(R1, fd)...)
		insns = append(insns,
			MovReg(R2, R10),
			ALUImm(ALUAdd, R2, key),
			MovReg(R3, R10),
			ALUImm(ALUAdd, R3, value),
			MovImm(R4, 0),
			Call(call),
			MovImm(R0, 0),
			Exit(),
		)
		return insns
	}
	for _, tc := range []struct {
		name  string
		insns []Instruction
		want  string
	}{
		{"4-byte load", []Instruction{
			Stx(8, R10, R1, -8),
			Ldx(4, R0, R10, -4),
			Exit(),
		}, "insn 1: leaking ctx pointer spilled at fp-8"},
		{"unaligned 8-byte load", []Instruction{
			StImm(8, R10, -16, 0),
			Stx(8, R10, R1, -8),
			Ldx(8, R0, R10, -12),
			Exit(),
		}, "insn 2: leaking ctx pointer spilled at fp-8"},
		{"map_update_elem value", helper(-12, -8, HelperMapUpdate), "insn 9: helper map_update_elem value: leaking ctx pointer spilled at fp-8"},
		{"map_lookup_elem key", helper(-8, -12, HelperMapLookup), "insn 9: helper map_lookup_elem key: leaking ctx pointer spilled at fp-8"},
		{"atomic add", []Instruction{
			Stx(8, R10, R1, -8),
			MovImm(R3, 1),
			XAdd(8, R10, R3, -8),
			Ldx(8, R0, R10, -8),
			Exit(),
		}, "insn 2: leaking ctx pointer spilled at fp-8"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantReject(t, tc.insns, tb, tc.want) })
	}
}

// An atomic add reads the bytes it adds to, so they must be initialized:
// otherwise each run on reused state returns one more than the last.
func TestVerifierAtomicAddReadsItsStackBytes(t *testing.T) {
	wantReject(t, []Instruction{
		MovImm(R3, 1),
		XAdd(8, R10, R3, -8),
		Ldx(8, R0, R10, -8),
		Exit(),
	}, nil, "insn 1: read of uninitialized stack at fp-8")
}

func TestVerifierRejectsPointerLeakToMapValue(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := lookupThen(fd, 0,
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
	insns := lookupThen(fd, 0,
		Ldx(8, R0, R0, 0), // deref without null check
		Exit(),
	)
	wantReject(t, insns, tb, "null check")
}

func TestVerifierAcceptsNullCheckedMapValue(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := lookupThen(fd, 0,
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
	insns := lookupThen(fd, 0,
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
	insns := lookupThen(fd, 0,
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

// TestVerifierRejectsHelperArgMismatch: each argument a helper takes is
// checked against its kind: a map handle, the ctx, a scalar.
func TestVerifierRejectsHelperArgMismatch(t *testing.T) {
	tb, _, arr := u64MapTable(t, 1)
	progs := tb.Register(MustNewMap(MapSpec{Name: "pa", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4}))
	tailCall := func(r1, r3 Instruction) []Instruction {
		return slices.Concat([]Instruction{r1}, LoadMapFD(R2, progs), []Instruction{r3, Call(HelperTailCall), MovImm(R0, 0), Exit()})
	}
	for _, tc := range []struct {
		name  string
		insns []Instruction
		want  string
	}{
		{"map_lookup_elem with a scalar r1", []Instruction{
			MovImm(R1, 5),
			MovReg(R2, R10),
			ALUImm(ALUAdd, R2, -4),
			StImm(4, R10, -4, 0),
			Call(HelperMapLookup),
			MovImm(R0, 0),
			Exit(),
		}, "want map handle"},
		{"tail_call with r1 = r10", tailCall(MovReg(R1, R10), MovImm(R3, 0)), "insn 4: helper tail_call arg1: want ctx, got fp"},
		{"tail_call with r3 = r1", tailCall(MovImm(R0, 0), MovReg(R3, R1)), "insn 4: helper tail_call arg3: want scalar, got ctx"},
		{"map_update_elem with r4 = r10", slices.Concat([]Instruction{StImm(8, R10, -8, 0)}, LoadMapFD(R1, arr), []Instruction{
			MovReg(R2, R10),
			ALUImm(ALUAdd, R2, -8),
			MovReg(R3, R10),
			ALUImm(ALUAdd, R3, -8),
			MovReg(R4, R10),
			Call(HelperMapUpdate),
			MovImm(R0, 0),
			Exit(),
		}), "insn 8: helper map_update_elem arg4: want scalar, got fp"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantReject(t, tc.insns, tb, tc.want) })
	}
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
	_, err := Load("loop", insns, LoadOptions{budget: 10_000})
	// Four instructions charged per path: the back edge is charged too.
	want := "analysis budget of 10000 instructions exceeded after exploring 2501 paths; program may be unbounded"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("unbounded loop not rejected by budget: %v", err)
	}
}

// TestVerifierBudgetOnALoopFreeProgram: 18 sequential diamonds on an
// unknown scalar, `if r0 > k { r6 += 1 }`, make 2^18 paths through 40
// instructions and no loop. The verifier keeps no explored states, so it
// runs out of budget here too; its message must count the paths it
// explored and must not call a loop-free program unbounded.
func TestVerifierBudgetOnALoopFreeProgram(t *testing.T) {
	insns := diamonds(18)
	if len(insns) != 40 {
		t.Fatalf("%d instructions, want 40", len(insns))
	}
	_, err := Load("diamonds", insns, LoadOptions{})
	want := "analysis budget of 1000000 instructions exceeded after exploring 249996 paths; it has no loop, but too many paths"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestVerifierForksWithoutAllocating: a state is a value, so an undecided
// branch costs the verifier a copy, not an allocation, and sixteen
// diamonds, 2^16 paths, verify in at most 16 allocations.
func TestVerifierForksWithoutAllocating(t *testing.T) {
	f := &AsmFile{Insns: diamonds(16)}
	n := testing.AllocsPerRun(2, func() {
		if _, err := Verify("diamonds", f); err != nil {
			t.Fatal(err)
		}
	})
	if n > 16 {
		t.Fatalf("16 diamonds verify in %v allocations, want <= 16", n)
	}
}

// diamonds is n sequential diamonds on an unknown scalar, `if r0 > k {
// r6 += 1 }` for k = 0..n-1: 2n+4 instructions and 2^n paths.
func diamonds(n int) []Instruction {
	insns := []Instruction{Call(HelperPrandomU32), MovImm(R6, 0)}
	for k := range int32(n) {
		insns = append(insns, JmpImm(JmpLe, R0, k, 1), ALUImm(ALUAdd, R6, 1))
	}
	return append(insns, MovImm(R0, 0), Exit())
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
	wantReject(t, tailCallOr(fd, 0, 0), tb, "prog_array")
}

func TestVerifierDataHelperRejectsProgArray(t *testing.T) {
	tb, _, fd := progArrayTable("pa", 4)
	insns := lookupThen(fd, 0,
		MovImm(R0, 0),
		Exit(),
	)
	wantReject(t, insns, tb, "prog_array")
}

func TestVerifierTailCallAccepted(t *testing.T) {
	tb, _, fd := progArrayTable("pa", 4)
	wantAccept(t, tailCallOr(fd, 0, 0), tb)
}

func TestVerifierOrNullComparedToNonZeroRejected(t *testing.T) {
	tb, _, fd := u64MapTable(t, 1)
	insns := lookupThen(fd, 0,
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

// A wrong constant folded into a stack pointer is a wrong offset: the
// verifier would check the store at fp-8 while the machine's own pointer is
// fp-6.
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
// taken from the reference, and the same chain followed by
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
			t.Fatalf("constant chain faulted: %v\n%s", err, p.TextSource())
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
				t.Errorf("verifier's constant differs from the run-time value %#x (%v):\n%s", v, err, (&AsmFile{Insns: chain}).Text())
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d constant chains fold to a value the machine does not compute", bad, chains)
	}
}
