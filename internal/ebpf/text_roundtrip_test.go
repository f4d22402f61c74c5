package ebpf

import (
	"math/rand/v2"
	"reflect"
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
// produce, including the 32-bit (w-register) ALU and jump variants, and a
// jump to the slot one past the last.
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
}

// TestTextRoundTripBackwardJump pins label generation for loops.
func TestTextRoundTripBackwardJump(t *testing.T) {
	insns := []Instruction{
		MovImm(R1, 4),
		ALUImm(ALUSub, R1, 1),
		JmpImm(JmpGt, R1, 0, -2),
		MovImm(R0, 0),
		Exit(),
	}
	rtCheck(t, &AsmFile{Insns: insns})
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

// TestTextRoundTripFuzz: every verifier-accepted random stream must
// round-trip through TextSource — the verifier guarantees jumps stay in
// bounds and never split an LDDW pair, which is exactly what the renderer
// needs. This reuses the soundness fuzzer's generator.
func TestTextRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x70ff, 0x1e55))
	m := MustNewMap(MapSpec{Name: "fz", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	table := NewMapTable()
	fd := table.Register(m)

	const trials = 4000
	accepted, skipped := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(24)
		var insns []Instruction
		for len(insns) < n {
			insns = append(insns, randInsn(rng, table, fd)...)
		}
		insns = append(insns, MovImm(R0, 0), Exit())

		p, err := Load("fuzz", insns, LoadOptions{MapTable: table, budget: 50_000})
		if err != nil {
			continue
		}
		// Dead code after an early exit escapes verification and can
		// contain jumps no label can name (into an LDDW pair, or outside
		// the stream and the slot past its end). Those streams are
		// documented as non-renderable; everything else must round-trip.
		if !textRenderable(p.insns) {
			skipped++
			continue
		}
		accepted++
		src := p.TextSource()
		g, err := Assemble(src, nil)
		if err != nil {
			t.Fatalf("accepted program failed to re-assemble: %v\nsource:\n%s", err, src)
		}
		// Pseudo-map immediates index the maps in both forms (p.maps and
		// the re-assembled declarations, in the same order), so the loaded
		// stream and the re-assembled one must be bit-identical.
		if !reflect.DeepEqual(p.insns, g.Insns) {
			t.Fatalf("round trip changed an accepted program\nsource:\n%s\ngot:\n%s", src, g.Text())
		}
	}
	if accepted == 0 {
		t.Fatal("fuzzer never produced an accepted program")
	}
	t.Logf("round-trip fuzz: %d accepted programs round-tripped, %d non-renderable skipped", accepted, skipped)
}
