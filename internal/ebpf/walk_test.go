package ebpf

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"
)

// Differential harness around one oracle, the reference. The same
// instruction stream is loaded into two identically initialized "worlds"
// and driven through every packet: Run on the program's reused state in
// one, RunInterp on fresh zeroed state in the other. Both walk the same
// code, so what the harness proves is the lazy-reset invariant: a verified
// program never reads a stale register or stack byte. Verdicts, error
// strings, packet mutations, map contents, full ExecStats and
// instret/runs/faults charging must agree. Test names that say JIT or
// Interp are the suite's long-standing ids for these two legs.

type diffWorld struct {
	table   *MapTable
	arr     *Map
	hash    *Map
	progArr *Map
	leaf    *Program
	prog    *Program
	loadErr error
}

// buildDiffWorld registers an array map (fd 3), a hash map (fd 4), and a
// prog array (fd 5, slot 1 populated) so generated programs can exercise
// lookups, updates, and tail calls.
func buildDiffWorld(insns []Instruction) *diffWorld {
	w := &diffWorld{
		arr:     MustNewMap(MapSpec{Name: "dfarr", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8}),
		hash:    MustNewMap(MapSpec{Name: "dfhash", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 16}),
		progArr: MustNewMap(MapSpec{Name: "dfprogs", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4}),
	}
	for k := uint32(0); k < 8; k++ {
		if err := w.arr.UpdateUint64(k, uint64(k)*7+1); err != nil {
			panic(err)
		}
	}
	if err := w.hash.UpdateUint64(3, 99); err != nil {
		panic(err)
	}
	w.table = NewMapTable()
	w.table.Register(w.arr)     // fd 3
	w.table.Register(w.hash)    // fd 4
	w.table.Register(w.progArr) // fd 5
	w.leaf = MustLoad("dleaf", []Instruction{MovImm(R0, 77), Exit()}, LoadOptions{})
	w.prog, w.loadErr = Load("dprog", insns, LoadOptions{MapTable: w.table, budget: 50_000})
	if err := w.progArr.UpdateProg(1, w.leaf); err != nil {
		panic(err)
	}
	return w
}

// diffEnv returns a deterministic Env private to one world, so helper
// results stay in lockstep without touching the shared global PRNG.
func diffEnv() *Env {
	s := uint32(0x12345678)
	return &Env{
		Prandom: func() uint32 {
			s ^= s << 13
			s ^= s >> 17
			s ^= s << 5
			return s
		},
		Ktime: func() uint64 { return 1_000_000 },
		CPUID: 2,
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

var diffPackets = [][]byte{
	nil,
	{},
	{0x01},
	make([]byte, 8),
	make([]byte, 64),
	make([]byte, 200),
}

func diffCtx(pi int, pkt []byte) *Ctx {
	return &Ctx{Packet: append([]byte(nil), pkt...), Hash: uint32(pi) * 0x9e37, Port: 9000 + uint32(pi), Queue: uint32(pi)}
}

// runDifferential drives both worlds through every packet and fails on the
// first divergence. It reports whether the program loaded.
func runDifferential(t *testing.T, insns []Instruction) bool {
	t.Helper()
	run := buildDiffWorld(insns)    // Run
	oracle := buildDiffWorld(insns) // RunInterp
	if run.loadErr != nil {
		return false
	}
	dis := run.prog.TextSource()

	envJ, envO := diffEnv(), diffEnv()
	for pi, pkt := range diffPackets {
		ctxJ, ctxO := diffCtx(pi, pkt), diffCtx(pi, pkt)

		retJ, stJ, errJ := run.prog.RunRet64(ctxJ, envJ)
		retO, stO, errO := oracle.prog.runRef(ctxO, envO)

		if errString(errJ) != errString(errO) {
			t.Fatalf("pkt %d error divergence:\n run:    %v\n ref:    %v\n%s", pi, errJ, errO, dis)
		}
		if errJ == nil && retJ != retO {
			t.Fatalf("pkt %d R0 divergence: run %#x ref %#x\n%s", pi, retJ, retO, dis)
		}
		if stJ != stO {
			t.Fatalf("pkt %d stats divergence: run %+v ref %+v\n%s", pi, stJ, stO, dis)
		}
		if !bytes.Equal(ctxJ.Packet, ctxO.Packet) {
			t.Fatalf("pkt %d packet mutation divergence\n run:    %x\n ref:    %x\n%s", pi, ctxJ.Packet, ctxO.Packet, dis)
		}
	}

	// Map contents must have evolved identically in both worlds.
	for k := uint32(0); k < 16; k++ {
		vj, okj := run.arr.LookupUint64(k)
		vo, oko := oracle.arr.LookupUint64(k)
		if vj != vo || okj != oko {
			t.Fatalf("array key %d divergence: run (%d,%v) ref (%d,%v)\n%s", k, vj, okj, vo, oko, dis)
		}
		vj, okj = run.hash.LookupUint64(k)
		vo, oko = oracle.hash.LookupUint64(k)
		if vj != vo || okj != oko {
			t.Fatalf("hash key %d divergence: run (%d,%v) ref (%d,%v)\n%s", k, vj, okj, vo, oko, dis)
		}
	}

	// Table 2 charging (instret/runs/faults) is dispatch-independent.
	if run.prog.Stats() != oracle.prog.Stats() {
		t.Fatalf("program charging divergence: run %+v ref %+v\n%s", run.prog.Stats(), oracle.prog.Stats(), dis)
	}
	if run.leaf.Stats() != oracle.leaf.Stats() {
		t.Fatalf("leaf charging divergence: run %+v ref %+v", run.leaf.Stats(), oracle.leaf.Stats())
	}
	return true
}

// randDiffInsn biases toward forms the base generator never emits: 32-bit
// ALU, JMP32 comparisons, hash-map references, and tail calls.
func randDiffInsn(rng *rand.Rand, arrFD, hashFD, progFD int32) []Instruction {
	reg := func() uint8 { return uint8(rng.IntN(10)) }
	imm := func() int32 { return int32(rng.IntN(256) - 64) }
	switch rng.IntN(10) {
	case 0:
		ops := []uint8{ALUAdd, ALUSub, ALUMul, ALUDiv, ALUMod, ALUOr, ALUAnd, ALUXor, ALULsh, ALURsh, ALUArsh}
		return []Instruction{ALU32Imm(ops[rng.IntN(len(ops))], reg(), imm())}
	case 1:
		ops := []uint8{ALUAdd, ALUSub, ALUXor, ALUAnd, ALUOr}
		return []Instruction{ALU32Reg(ops[rng.IntN(len(ops))], reg(), reg())}
	case 2:
		return []Instruction{Neg(reg())}
	case 3:
		// Raw JMP32 conditional (no constructor exists for these).
		ops := []uint8{JmpEq, JmpNe, JmpGt, JmpGe, JmpLt, JmpLe, JmpSGt, JmpSGe, JmpSLt, JmpSLe, JmpSet}
		return []Instruction{{
			Op:  ClassJMP32 | ops[rng.IntN(len(ops))] | SrcK,
			Dst: reg(), Imm: imm(), Off: int16(rng.IntN(6)),
		}}
	case 4:
		return LoadMapFD(reg(), hashFD)
	case 5:
		// Tail call into prog-array slot 0..3 (only slot 1 is populated).
		return append(LoadMapFD(R2, progFD),
			MovImm(R3, int32(rng.IntN(4))),
			Call(HelperTailCall),
		)
	case 6:
		return []Instruction{Call(HelperMapDelete)}
	case 7:
		return LoadImm64(reg(), rng.Uint64())
	default:
		return randInsn(rng, nil, arrFD)
	}
}

// TestDifferentialCompiledVsInterp is the deterministic core of the
// differential fuzz target: thousands of random programs through both
// legs.
func TestDifferentialCompiledVsInterp(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc0ffee, 0xd15ea5e))
	const trials = 4000
	accepted := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.IntN(24)
		var insns []Instruction
		for len(insns) < n {
			insns = append(insns, randDiffInsn(rng, 3, 4, 5)...)
		}
		insns = append(insns, MovImm(R0, 0), Exit())
		if runDifferential(t, insns) {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("differential fuzzer never produced an accepted program")
	}
	t.Logf("differential: %d/%d programs accepted and compared", accepted, trials)
}

// TestJITTailCallChain checks the walker's program switch on a tail call,
// including stats accounting across the chain.
func TestJITTailCallChain(t *testing.T) {
	progArr := MustNewMap(MapSpec{Name: "chain", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4})
	table := NewMapTable()
	fd := table.Register(progArr)

	leaf := MustLoad("leaf", []Instruction{MovImm(R0, 42), Exit()}, LoadOptions{})
	mid := MustLoad("mid", append(LoadMapFD(R2, fd),
		MovImm(R3, 2),
		Call(HelperTailCall),
		MovImm(R0, 1),
		Exit(),
	), LoadOptions{MapTable: table})
	root := MustLoad("root", append(LoadMapFD(R2, fd),
		MovImm(R3, 1),
		Call(HelperTailCall),
		MovImm(R0, 0),
		Exit(),
	), LoadOptions{MapTable: table})
	if err := progArr.UpdateProg(1, mid); err != nil {
		t.Fatal(err)
	}
	if err := progArr.UpdateProg(2, leaf); err != nil {
		t.Fatal(err)
	}

	ctx := &Ctx{Packet: make([]byte, 16)}
	ret, st, err := root.Run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Fatalf("verdict %d, want 42", ret)
	}
	if st.TailCalls != 2 {
		t.Fatalf("TailCalls %d, want 2", st.TailCalls)
	}
	// Each chain segment charges one run to its program.
	if root.Stats().Runs != 1 || mid.Stats().Runs != 1 || leaf.Stats().Runs != 1 {
		t.Fatalf("runs: root %d mid %d leaf %d, want 1 each", root.Stats().Runs, mid.Stats().Runs, leaf.Stats().Runs)
	}
	// And against the oracle: identical verdict and stats.
	ret2, st2, err2 := root.RunInterp(ctx, nil)
	if err2 != nil || ret2 != ret || st2 != st {
		t.Fatalf("oracle mismatch: ret %d vs %d, stats %+v vs %+v, err %v", ret2, ret, st2, st, err2)
	}
}

// TestJITErrorStringsMatchInterp pins the error-context contract: Run on
// reused state and RunInterp on fresh state must produce byte-identical
// error strings, pc and insn numbers included.
func TestJITErrorStringsMatchInterp(t *testing.T) {
	cases := []struct {
		name  string
		insns []Instruction
	}{
		{"bad_mem_deref", []Instruction{
			MovImm(R2, 0),
			Ldx(8, R0, R2, 0),
			Exit(),
		}},
		{"bad_ctx_load", []Instruction{
			Ldx(4, R0, R1, 99),
			Exit(),
		}},
		{"bad_alu_op", []Instruction{
			{Op: ClassALU64 | 0xe0 | SrcK, Dst: R0},
			Exit(),
		}},
		{"unknown_helper", []Instruction{
			Call(999),
			Exit(),
		}},
		{"pc_out_of_range", []Instruction{
			Ja(5),
			Exit(),
		}},
		{"stack_oob", []Instruction{
			Ldx(8, R0, R10, 8),
			Exit(),
		}},
		// A jump before slot 0 is a fault like any other, not an index panic
		// in the host process.
		{"pc_negative", []Instruction{
			Ja(-3),
			Exit(),
		}},
		// So is a jump into a trailing slot that decodes as an LDDW with no
		// high half.
		{"lddw_truncated", []Instruction{
			Ja(1),
			Exit(),
			{Op: ClassLD | ModeIMM | SizeW, Dst: R0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := loadUnverified("errs", tc.insns)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &Ctx{Packet: make([]byte, 4)}
			_, stJ, errJ := p.Run(ctx, nil)
			_, stI, errI := p.RunInterp(ctx, nil)
			if errJ == nil || errI == nil {
				t.Fatalf("expected errors, got run %v ref %v", errJ, errI)
			}
			if errJ.Error() != errI.Error() {
				t.Fatalf("error string divergence:\n run: %s\n ref: %s", errJ, errI)
			}
			if stJ != stI {
				t.Fatalf("stats divergence: run %+v ref %+v", stJ, stI)
			}
		})
	}
}

// TestDecodeIsTotal: every op byte decodes to some kind, and walking the
// one-instruction NoVerify program exits or faults exactly as the field-
// decoding interpreter this walker replaced did — testdata/decode_total.txt
// was captured from it (the commit before the walker) for the same 256
// programs. Registers stay within R0–R10, as the assembler and the verifier
// enforce.
func TestDecodeIsTotal(t *testing.T) {
	f, err := os.Open("testdata/decode_total.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for opb := 0; opb < 256; opb++ {
		if !sc.Scan() {
			t.Fatalf("golden ends before op %#x", opb)
		}
		tag, want, _ := strings.Cut(sc.Text(), " ")
		if tag != fmt.Sprintf("%#04x", opb) {
			t.Fatalf("golden line %d is for %s", opb, tag)
		}
		ins := Instruction{Op: uint8(opb), Dst: R2, Src: R10, Off: -8, Imm: 1}
		p, err := loadUnverified("total", []Instruction{ins})
		if err != nil {
			if got := "load: " + err.Error(); got != want {
				t.Errorf("op %#04x: %s, want %s", opb, got, want)
			}
			continue
		}
		for name, run := range map[string]func(*Ctx, *Env) (uint64, ExecStats, error){"Run": p.RunRet64, "reference": p.runRef} {
			ret, st, err := run(&Ctx{Packet: make([]byte, 4)}, nil)
			if got := fmt.Sprintf("r0=%d insns=%d helpers=%d err=%v", ret, st.Insns, st.Helpers, err); got != want {
				t.Errorf("op %#04x under %s: %s, want %s", opb, name, got, want)
			}
		}
	}
}

// TestHelpersAreTotal: every helper number 0–255, called bare (r1 the ctx,
// r2–r5 unset) and armed (r1 an array map, r2 and r3 initialized stack,
// r4 and r5 zero), renders, verifies and runs unverified exactly as
// testdata/helpers_total.txt records. A number no helper has renders as a
// number, is refused by the verifier and faults at run time; Run and the
// reference fault alike.
func TestHelpersAreTotal(t *testing.T) {
	golden, err := os.ReadFile("testdata/helpers_total.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != 256 {
		t.Fatalf("golden has %d lines, want 256", len(want))
	}
	for n := range int32(256) {
		if got := helperTotal(t, n); got != want[n] {
			t.Errorf("got  %s\nwant %s", got, want[n])
		}
	}
}

// helperTotal is helper n's golden line: its rendering, then for each
// program its verdict and its unverified run.
func helperTotal(t *testing.T, n int32) string {
	armed := append([]Instruction{StImm(8, R10, -8, 0), StImm(8, R10, -16, 2)}, LoadMapFD(R1, 0)...)
	armed = append(armed, MovReg(R2, R10), ALUImm(ALUAdd, R2, -8), MovReg(R3, R10), ALUImm(ALUAdd, R3, -16), MovImm(R4, 0), MovImm(R5, 0))
	line := fmt.Sprintf("%#04x %s", n, strings.TrimSpace((&AsmFile{Insns: []Instruction{Call(n)}}).Text()))
	for _, pre := range [][]Instruction{nil, armed} {
		f := &AsmFile{
			Insns: append(slices.Clone(pre), Call(n), Exit()),
			Maps:  []MapSpec{{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1}},
		}
		_, verr := Verify("helper", f)
		v, err := verifyFile("helper", f, 0)
		if err != nil {
			t.Fatal(err)
		}
		var runs []string
		for _, run := range []func(*Program) (uint64, ExecStats, error){
			func(p *Program) (uint64, ExecStats, error) { return p.RunRet64(&Ctx{Packet: make([]byte, 4)}, nil) },
			func(p *Program) (uint64, ExecStats, error) { return p.runRef(&Ctx{Packet: make([]byte, 4)}, nil) },
		} {
			p, _, err := v.Bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			ret, st, err := run(p)
			runs = append(runs, fmt.Sprintf("r0=%#x insns=%d helpers=%d tail=%d err=%v", ret, st.Insns, st.Helpers, st.TailCalls, err))
		}
		if runs[0] != runs[1] {
			t.Errorf("helper %d: Run %s, reference %s", n, runs[0], runs[1])
		}
		line += fmt.Sprintf(" | verify: %v | run: %s", verr, runs[0])
	}
	return line
}

// operandlessJunkSrc is a program the verifier admits — it checks neither
// the X bit nor the src field of exit, call and ja — whose every operandless
// jump names a register past R10 (Decode yields src up to 15).
func operandlessJunkSrc(src uint8) []Instruction {
	return []Instruction{
		{Op: ClassJMP | JmpA | SrcX, Src: src},
		{Op: ClassJMP | JmpCall | SrcX, Src: src, Imm: HelperKtimeGetNS},
		MovImm(R0, 0),
		{Op: ClassJMP | JmpExit | SrcX, Src: src},
	}
}

// TestOperandlessJumpsIgnoreSrc: the walker must not index the register
// file with a src field no check covers; the program runs to exit with r0=0
// under both legs.
func TestOperandlessJumpsIgnoreSrc(t *testing.T) {
	for src := uint8(NumRegs); src < 16; src++ {
		p, err := Load("junk_src", operandlessJunkSrc(src), LoadOptions{})
		if err != nil {
			t.Fatalf("src %d: %v", src, err)
		}
		for name, run := range map[string]func(*Ctx, *Env) (uint64, ExecStats, error){"Run": p.RunRet64, "reference": p.runRef} {
			ret, st, err := run(&Ctx{Packet: make([]byte, 4)}, nil)
			if err != nil || ret != 0 || st.Insns != 4 || st.Helpers != 1 {
				t.Errorf("src %d under %s: r0=%d stats=%+v err=%v, want r0=0, 4 insns, 1 helper", src, name, ret, st, err)
			}
		}
	}
}

// TestCompiledRunZeroAllocs is the reuse contract: steady-state Run —
// short filter, map-heavy policy, tail-call chain, every other helper —
// performs zero heap allocations per run.
func TestCompiledRunZeroAllocs(t *testing.T) {
	arr := MustNewMap(MapSpec{Name: "za", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	progArr := MustNewMap(MapSpec{Name: "zp", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4})
	table := NewMapTable()
	arrFD := table.Register(arr)
	progFD := table.Register(progArr)

	short := MustLoad("za_short", []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		ALUImm(ALUAnd, R0, 3),
		Exit(),
	}, LoadOptions{})

	mapHeavy := MustLoad("za_map", append([]Instruction{StImm(4, R10, -4, 0)},
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

	leaf := MustLoad("za_leaf", []Instruction{MovImm(R0, 9), Exit()}, LoadOptions{})
	chain := MustLoad("za_chain", append(LoadMapFD(R2, progFD),
		MovImm(R3, 1),
		Call(HelperTailCall),
		MovImm(R0, 0),
		Exit(),
	), LoadOptions{MapTable: table})
	if err := progArr.UpdateProg(1, leaf); err != nil {
		t.Fatal(err)
	}
	// Every other helper body: an update in place, a delete that misses
	// (-1, no error to format), the clock, the PRNG and the CPU id.
	hashFD := table.Register(MustNewMap(MapSpec{Name: "zh", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 4}))
	others := MustLoad("za_helpers", slices.Concat(
		[]Instruction{StImm(8, R10, -8, 1)},
		LoadMapFD(R1, arrFD),
		[]Instruction{MovReg(R2, R10), ALUImm(ALUAdd, R2, -8), MovReg(R3, R2), MovImm(R4, 0), Call(HelperMapUpdate)},
		LoadMapFD(R1, hashFD),
		[]Instruction{MovReg(R2, R10), ALUImm(ALUAdd, R2, -8), Call(HelperMapDelete),
			Call(HelperKtimeGetNS), Call(HelperPrandomU32), Call(HelperGetSmpProcID), Exit()},
	), LoadOptions{MapTable: table})

	env := diffEnv()
	ctx := &Ctx{Packet: make([]byte, 64), Hash: 0xabcd}
	for _, tc := range []struct {
		name string
		p    *Program
	}{
		{"short_filter", short},
		{"map_policy", mapHeavy},
		{"tailcall_chain", chain},
		{"every_other_helper", others},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Warm the map-value region slice.
			for i := 0; i < 16; i++ {
				if _, _, err := tc.p.Run(ctx, env); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(200, func() {
				if _, _, err := tc.p.Run(ctx, env); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("%s: %v allocs/op in Run steady state, want 0", tc.name, avg)
			}
		})
	}
}

// TestDispatchCountersExported: a program's run accounting is its own.
// Three runs and one reference run of a fresh program read exactly
// 4 runs / 8 instructions / 0 faults, whatever else the process ran.
func TestDispatchCountersExported(t *testing.T) {
	MustLoad("noise", []Instruction{MovImm(R0, 0), Exit()}, LoadOptions{}).Run(&Ctx{}, nil)
	p := MustLoad("ctr", []Instruction{MovImm(R0, 0), Exit()}, LoadOptions{})
	ctx := &Ctx{}
	for i := 0; i < 3; i++ {
		if _, _, err := p.Run(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := p.RunInterp(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := p.Stats(), (Stats{Runs: 4, InsnsExecuted: 8}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestFallbackPrandomPerProgram: a nil-Env program's get_prandom_u32
// stream is the program's own — the fixed-seed xorshift32 sequence from
// its first draw, however many draws other programs made in between — and
// Run and the reference draw from the same stream.
func TestFallbackPrandomPerProgram(t *testing.T) {
	load := func(name string) *Program {
		return MustLoad(name, []Instruction{Call(HelperPrandomU32), Exit()}, LoadOptions{})
	}
	want := make([]uint32, 4)
	x := uint32(0x9e3779b9)
	for i := range want {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		want[i] = x
	}
	a, b := load("prng_a"), load("prng_b")
	var got []uint32
	for i := range want {
		for n := 0; n <= i; n++ { // interleave a growing number of foreign draws
			b.Run(&Ctx{}, nil)
		}
		run := a.Run
		if i%2 == 1 {
			run = a.RunInterp
		}
		r, _, err := run(&Ctx{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("program a drew %#x, want its own stream %#x", got, want)
	}
	// An Env without a Prandom falls back the same way as a nil Env.
	if r, _, _ := load("prng_c").Run(&Ctx{}, &Env{}); r != want[0] {
		t.Fatalf("first draw under an empty Env = %#x, want %#x", r, want[0])
	}
}
