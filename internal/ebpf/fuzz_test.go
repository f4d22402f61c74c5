package ebpf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
)

// The verifier's core soundness property: any program it admits must
// execute without memory faults on arbitrary inputs. We generate random
// (biased-toward-plausible) instruction streams, load them, and run every
// accepted program against adversarial packets, with Run on reused state
// and RunInterp on fresh state. The executor trusts nothing the verifier
// proved — every access is checked against its live region — so a runtime
// error on either leg is a verifier hole, and a result that differs
// between them is a stale register or stack byte the verifier let a
// program read. A panic anywhere is a bug outright.

// randInsn produces one random instruction from a menu weighted toward
// forms that have a chance of verifying.
func randInsn(rng *rand.Rand, table *MapTable, fd int32) []Instruction {
	reg := func() uint8 { return uint8(rng.IntN(10)) } // R0..R9
	off := func() int16 { return int16(rng.IntN(64) - 32) }
	imm := func() int32 { return int32(rng.IntN(256) - 64) }
	allALU := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUNeg, ALUMod, ALUXor, ALUMov, ALUArsh}
	shiftOps := []uint8{ALULsh, ALURsh, ALUArsh}
	// aluImm is any ALU op of either width against an immediate; shift
	// counts span 0..63, past the 32-bit class's 5-bit mask.
	aluImm := func(dst uint8) Instruction {
		op, k := allALU[rng.IntN(len(allALU))], imm()
		switch op {
		case ALULsh, ALURsh, ALUArsh:
			k = int32(rng.IntN(64))
		case ALUNeg:
			k = 0 // the text form has nowhere to keep NEG's unused operand
		}
		if rng.IntN(2) == 0 {
			return ALU32Imm(op, dst, k)
		}
		return ALUImm(op, dst, k)
	}
	switch rng.IntN(20) {
	case 0:
		return []Instruction{MovImm(reg(), imm())}
	case 1:
		return []Instruction{MovReg(reg(), reg())}
	case 2:
		ops := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUOr, ALUAnd, ALULsh, ALURsh, ALUMod, ALUXor, ALUArsh}
		return []Instruction{ALUImm(ops[rng.IntN(len(ops))], reg(), imm())}
	case 3:
		ops := []uint8{ALUAdd, ALUSub, ALUXor, ALUAnd, ALUOr}
		return []Instruction{ALUReg(ops[rng.IntN(len(ops))], reg(), reg())}
	case 4:
		return []Instruction{Ldx(1<<uint(rng.IntN(4)), reg(), reg(), off())}
	case 5:
		return []Instruction{Ldx(8, reg(), R1, int16(rng.IntN(5)*8-8))} // ctx-ish offsets
	case 6:
		return []Instruction{Stx(1<<uint(rng.IntN(4)), reg(), reg(), off())}
	case 7:
		return []Instruction{StImm(1<<uint(rng.IntN(4)), R10, int16(-8*(1+rng.IntN(8))), imm())}
	case 8:
		return []Instruction{Ldx(8, reg(), R10, int16(-8*(1+rng.IntN(8))))}
	case 9:
		ops := []uint8{JmpEq, JmpNe, JmpGt, JmpGe, JmpLt, JmpLe, JmpSGt, JmpSLt, JmpSet}
		return []Instruction{JmpImm(ops[rng.IntN(len(ops))], reg(), imm(), int16(rng.IntN(8)))}
	case 10:
		return []Instruction{JmpReg(JmpGt, reg(), reg(), int16(rng.IntN(6)))}
	case 11:
		return []Instruction{Ja(int16(rng.IntN(4)))}
	case 12:
		helpers := []int32{HelperMapLookup, HelperMapUpdate, HelperPrandomU32, HelperKtimeGetNS, HelperGetSmpProcID}
		return []Instruction{Call(helpers[rng.IntN(len(helpers))])}
	case 13:
		return LoadMapFD(reg(), fd)
	case 14:
		return []Instruction{XAdd(4+4*rng.IntN(2), reg(), reg(), off())}
	case 15:
		return []Instruction{aluImm(reg())}
	case 16:
		op := allALU[rng.IntN(len(allALU))]
		if op == ALUNeg {
			return []Instruction{ALU32Imm(op, reg(), 0)}
		}
		return []Instruction{ALU32Reg(op, reg(), reg())}
	case 17:
		return []Instruction{ALUReg(shiftOps[rng.IntN(len(shiftOps))], reg(), reg())}
	case 18:
		// A register the verifier knows exactly — a small constant through
		// one more ALU op — added to a stack or map-value pointer, then a
		// store through the sum: the verifier's constant becomes a pointer
		// offset that the executor checks against the real region.
		k := uint8(6 + rng.IntN(4)) // R6..R9
		konst := []Instruction{MovImm(k, int32(rng.IntN(9))), aluImm(k)}
		size := 1 << uint(rng.IntN(4))
		if rng.IntN(2) == 0 {
			return append(konst,
				MovReg(R2, R10),
				ALUImm(ALUAdd, R2, int32(-8*(1+rng.IntN(8)))),
				ALUReg(ALUAdd, R2, k),
				StImm(size, R2, 0, imm()))
		}
		seq := append([]Instruction{StImm(4, R10, -4, int32(rng.IntN(8)))}, LoadMapFD(R1, fd)...)
		seq = append(seq,
			MovReg(R2, R10),
			ALUImm(ALUAdd, R2, -4),
			Call(HelperMapLookup),
			JmpImm(JmpEq, R0, 0, int16(len(konst)+2)))
		return append(append(seq, konst...),
			ALUReg(ALUAdd, R0, k),
			StImm(size, R0, 0, imm()))
	default:
		return []Instruction{Exit()}
	}
}

func TestFuzzVerifierSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xfeed, 0xbeef))
	// The accept decision is taken against one static table whose only map
	// has the shape and fd of the differential world's array.
	table := NewMapTable()
	fd := table.Register(MustNewMap(MapSpec{Name: "fz", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8}))

	pkts := [][]byte{
		nil,
		{},
		{0x01},
		make([]byte, 7),
		make([]byte, 8),
		make([]byte, 64),
		make([]byte, 1500),
	}

	const trials = 30000
	accepted, ran := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(24)
		var insns []Instruction
		for len(insns) < n {
			insns = append(insns, randInsn(rng, table, fd)...)
		}
		insns = append(insns, MovImm(R0, 0), Exit())

		// Neither loading nor running may ever panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on fuzz program: %v\n%s", r, (&AsmFile{Insns: insns}).Text())
				}
			}()
			if _, err := Load("fuzz", insns, LoadOptions{MapTable: table, budget: 50_000}); err != nil {
				return // rejected: fine
			}
			accepted++
			// Two identically seeded worlds, so map effects cannot make the
			// two legs' results differ.
			run, interp := buildDiffWorld(insns), buildDiffWorld(insns)
			envR, envI := diffEnv(), diffEnv()
			for _, pkt := range pkts {
				hash, port := rng.Uint32(), uint32(rng.IntN(65536))
				ctxR := &Ctx{Packet: bytes.Clone(pkt), Hash: hash, Port: port}
				ctxI := &Ctx{Packet: bytes.Clone(pkt), Hash: hash, Port: port}
				retR, _, errR := run.prog.RunRet64(ctxR, envR)
				retI, _, errI := interp.prog.runRef(ctxI, envI)
				if errR != nil || errI != nil {
					t.Fatalf("verifier admitted a faulting program (Run: %v, RunInterp: %v):\n%s", errR, errI, run.prog.TextSource())
				}
				if retR != retI || !bytes.Equal(ctxR.Packet, ctxI.Packet) {
					t.Fatalf("verifier admitted a program that reads stale state: Run (reused state) r0 %#x packet %x, RunInterp (fresh state) r0 %#x packet %x\n%s",
						retR, ctxR.Packet, retI, ctxI.Packet, run.prog.TextSource())
				}
				ran++
			}
		}()
	}
	if accepted == 0 {
		t.Fatal("fuzzer never produced an accepted program; generator too hostile to be useful")
	}
	t.Logf("fuzz: %d/%d programs accepted, %d executions on each leg, no faults, no disagreement", accepted, trials, ran)
}

// FuzzRunMatchesReference is the differential fuzz target: any instruction
// stream that decodes must behave bit-identically under Run on reused state
// and RunInterp on fresh state — same load outcome, same
// verdict and R0, same ExecStats, same error strings, same map and packet
// effects. The seed corpus covers the three benchmark shapes (short
// filter, map-heavy policy, tail-call chain).
func FuzzRunMatchesReference(f *testing.F) {
	f.Add(Encode([]Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		ALUImm(ALUAnd, R0, 3),
		Exit(),
	}))
	// Map-heavy counter policy against the differential world's array map
	// (fd 3).
	mapPolicy := []Instruction{StImm(4, R10, -4, 0)}
	mapPolicy = append(mapPolicy, LoadMapFD(R1, 3)...)
	mapPolicy = append(mapPolicy,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 4),
		Ldx(8, R6, R0, 0),
		ALUImm(ALUAdd, R6, 1),
		Stx(8, R0, R6, 0),
		MovReg(R0, R6),
		Exit(),
	)
	f.Add(Encode(mapPolicy))
	// Tail call through the differential world's prog array (fd 5, slot 1).
	chain := LoadMapFD(R2, 5)
	chain = append(chain,
		MovImm(R3, 1),
		Call(HelperTailCall),
		MovImm(R0, 0),
		Exit(),
	)
	f.Add(Encode(chain))
	// A rejected program: load errors must match too.
	f.Add(Encode([]Instruction{Ldx(8, R0, R9, 0), Exit()}))
	// Admitted, with src fields no check covers naming registers past R10.
	f.Add(Encode(operandlessJunkSrc(12)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		insns, err := decodeWire(raw)
		if err != nil || len(insns) == 0 || len(insns) > 64 {
			return
		}
		runDifferential(t, insns)
	})
}

// Random bytes through the assembler must never panic.
func TestFuzzAssemblerNoPanic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	tokens := []string{
		"r0", "r1", "r10", "w3", "=", "+=", "%=", "goto", "if", "exit", "call",
		"map_lookup_elem", "*(u64 *)", "(r1 + 0)", "lbl:", "lbl", ".map", ".const",
		"array", "5", "-8", "0xff", "ll", "lock", "PASS", "\n",
	}
	for trial := 0; trial < 5000; trial++ {
		var src string
		for i := 0; i < rng.IntN(40); i++ {
			src += tokens[rng.IntN(len(tokens))]
			if rng.IntN(3) == 0 {
				src += " "
			}
			if rng.IntN(5) == 0 {
				src += "\n"
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("assembler panic on %q: %v", src, r)
				}
			}()
			if f, err := Assemble(src, nil); err == nil {
				// If it assembled, instantiation must not panic either.
				f.Instantiate(nil)
			}
		}()
	}
}

// decodeWire parses Encode's 8-byte wire format back into instructions.
func decodeWire(raw []byte) ([]Instruction, error) {
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("ebpf: bytecode length %d not a multiple of 8", len(raw))
	}
	insns := make([]Instruction, len(raw)/8)
	for i := range insns {
		b := raw[i*8:]
		insns[i] = Instruction{
			Op:  b[0],
			Dst: b[1] & 0x0f,
			Src: b[1] >> 4,
			Off: int16(binary.LittleEndian.Uint16(b[2:])),
			Imm: int32(binary.LittleEndian.Uint32(b[4:])),
		}
	}
	return insns, nil
}
