package ebpf

import (
	"math/rand/v2"
	"testing"
)

// runBatchDifferential drives one world through N individual Runs and an
// identical world through N runs on one caller-owned RunState — the state
// a hook point keeps — comparing every observable:
// return values, error strings, exec stats, map side effects, and the
// dispatch counters left behind. Reports whether the program loaded.
func runBatchDifferential(t *testing.T, insns []Instruction) bool {
	t.Helper()
	single := buildDiffWorld(insns)
	batched := buildDiffWorld(insns)
	if errString(single.loadErr) != errString(batched.loadErr) {
		t.Fatalf("load divergence: %v vs %v", single.loadErr, batched.loadErr)
	}
	if single.loadErr != nil {
		return false
	}

	envS, envB := diffEnv(), diffEnv()
	var rs RunState
	for pi, pkt := range diffPackets {
		pktS := append([]byte(nil), pkt...)
		pktB := append([]byte(nil), pkt...)
		ctxS := &Ctx{Packet: pktS, Hash: uint32(pi) * 0x9e37, Port: 9000 + uint32(pi), Queue: uint32(pi)}
		ctxB := &Ctx{Packet: pktB, Hash: uint32(pi) * 0x9e37, Port: 9000 + uint32(pi), Queue: uint32(pi)}

		retS, stS, errS := single.prog.Run(ctxS, envS)
		retB, stB, errB := rs.Run(batched.prog, ctxB, envB)

		if errString(errS) != errString(errB) {
			t.Fatalf("pkt %d error divergence: Run %v, RunState %v\n%s", pi, errS, errB, single.prog.Disassemble())
		}
		if retS != retB {
			t.Fatalf("pkt %d return divergence: Run %d, RunState %d\n%s", pi, retS, retB, single.prog.Disassemble())
		}
		if stS != stB {
			t.Fatalf("pkt %d stats divergence: Run %+v, RunState %+v\n%s", pi, stS, stB, single.prog.Disassemble())
		}
		if string(pktS) != string(pktB) {
			t.Fatalf("pkt %d packet-write divergence\n%s", pi, single.prog.Disassemble())
		}
	}

	if ss, sb := single.prog.Stats(), batched.prog.Stats(); ss != sb {
		t.Fatalf("program accounting divergence: Run %+v, RunState %+v", ss, sb)
	}
	for k := uint32(0); k < 8; k++ {
		vs, oks := single.arr.LookupUint64(k)
		vb, okb := batched.arr.LookupUint64(k)
		if vs != vb || oks != okb {
			t.Fatalf("map divergence at %d: Run %d/%v, RunState %d/%v", k, vs, oks, vb, okb)
		}
	}
	return true
}

// TestBatchRunEquivalence fuzzes random programs through both dispatch
// styles.
func TestBatchRunEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xbadc0de, 0xfeedface))
	const trials = 1500
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(24)
		var insns []Instruction
		for len(insns) < n {
			insns = append(insns, randDiffInsn(rng, 3, 4, 5)...)
		}
		insns = append(insns, MovImm(R0, 0), Exit())
		if runBatchDifferential(t, insns) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("batch differential never produced an accepted program")
	}
	t.Logf("batch differential: %d/%d programs accepted and compared", accepted, trials)
}

// TestZeroAllocBatchRun gates the caller-owned entry point: a burst of
// runs on one RunState allocates nothing, including the shared
// map-heavy shape.
func TestZeroAllocBatchRun(t *testing.T) {
	arr := MustNewMap(MapSpec{Name: "zb", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	table := NewMapTable()
	arrFD := table.Register(arr)
	prog := MustLoad("zb_map", append([]Instruction{StImm(4, R10, -4, 0)},
		append(LoadMapFD(R1, arrFD),
			MovReg(R2, R10),
			ALUImm(ALUAdd, R2, -4),
			Call(HelperMapLookup),
			JmpImm(JmpEq, R0, 0, 4),
			Ldx(8, R6, R0, 0),
			ALUImm(ALUAdd, R6, 1),
			Stx(8, R0, R6, 0),
			MovReg(R0, R6),
			Exit(),
		)...), LoadOptions{MapTable: table})
	ctx := &Ctx{Hash: 0x1234}
	var rs RunState
	burst := func() {
		for i := 0; i < 16; i++ {
			if _, _, err := rs.Run(prog, ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	burst() // size the map-value region list
	if avg := testing.AllocsPerRun(300, burst); avg != 0 {
		t.Fatalf("RunState burst: %v allocs/op, want 0", avg)
	}
}
