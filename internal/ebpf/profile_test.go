package ebpf

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// profTestInsns runs verbatim (pinned by profRun): with Hash == 5
// slots 0-2 always run, the taken branch skips slot 3, slots 4-5 always
// run.
func profTestInsns() []Instruction {
	return []Instruction{
		MovImm(R0, 1),              // 0: always
		Ldx(4, R2, R1, CtxOffHash), // 1: always
		JmpImm(JmpEq, R2, 5, 1),    // 2: always taken
		MovImm(R0, 99),             // 3: never
		ALUImm(ALUAdd, R0, 7),      // 4: always
		Exit(),                     // 5: always
	}
}

var profTestCtx = &Ctx{Hash: 5}

// pinStream fails unless Load left insns verbatim, so slot numbers in the
// test mean what the source says.
func pinStream(t *testing.T, p *Program, insns []Instruction) {
	t.Helper()
	if !slices.Equal(p.insns, insns) {
		t.Fatalf("load rewrote the stream:\n%s\nwant:\n%s", p.TextSource(), (&AsmFile{Insns: insns}).Text())
	}
}

func profRun(t *testing.T, run func(*Program, *Ctx, *Env) (uint32, ExecStats, error)) *Program {
	t.Helper()
	p, err := Load("ptest", profTestInsns(), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pinStream(t, p, profTestInsns())
	for i := 0; i < 10; i++ {
		if _, _, err := run(p, profTestCtx, nil); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestProfileHitsInterpVsJIT: per-slot hit counts are exact — literal for
// the small program — and identical between the reference and Run.
func TestProfileHitsInterpVsJIT(t *testing.T) {
	want := []uint64{10, 10, 10, 0, 10, 10}
	for _, p := range []*Program{profRun(t, (*Program).RunInterp), profRun(t, (*Program).Run)} {
		if got := p.Hits(); !reflect.DeepEqual(got, want) {
			t.Fatalf("hits = %v, want %v", got, want)
		}
		if st := p.Stats(); st.Runs != 10 || st.InsnsExecuted != 50 {
			t.Fatalf("runs=%d insns=%d, want 10/50", st.Runs, st.InsnsExecuted)
		}
	}

	// A program touching every memory region, across the map path, the
	// early-out path and a tail call: both legs credit the same slots, and
	// the hits sum to the instructions charged.
	t.Run("every_kind", func(t *testing.T) {
		entryJ, leafJ := profShapeWorld(t)
		entryI, leafI := profShapeWorld(t)
		long := make([]byte, 32)
		magic := make([]byte, 32)
		magic[8] = 99 // takes the branch to the tail call
		for _, pkt := range [][]byte{long, magic, make([]byte, 4), long, nil} {
			ctxJ := &Ctx{Packet: append([]byte(nil), pkt...), Hash: 5}
			ctxI := &Ctx{Packet: append([]byte(nil), pkt...), Hash: 5}
			rJ, stJ, errJ := entryJ.Run(ctxJ, nil)
			rI, stI, errI := entryI.RunInterp(ctxI, nil)
			if rJ != rI || stJ != stI || errString(errJ) != errString(errI) {
				t.Fatalf("run diverged: (%d %+v %v) vs reference (%d %+v %v)", rJ, stJ, errJ, rI, stI, errI)
			}
		}
		for _, pair := range [][2]*Program{{entryJ, entryI}, {leafJ, leafI}} {
			hj, hi := pair[0].Hits(), pair[1].Hits()
			if !reflect.DeepEqual(hj, hi) {
				t.Fatalf("%s hits diverged:\n run: %v\n ref: %v\n%s", pair[0].Name(), hj, hi, pair[0].TextSource())
			}
			var sum uint64
			for _, h := range hj {
				sum += h
			}
			if sum != pair[0].Stats().InsnsExecuted || sum == 0 {
				t.Fatalf("%s: hits sum to %d, InsnsExecuted = %d", pair[0].Name(), sum, pair[0].Stats().InsnsExecuted)
			}
		}
	})

	// A faulting load credits exactly its own slot and one fault: nothing
	// after it ran. A verified program cannot fault there, so this one is
	// not verified.
	t.Run("faulting_load", func(t *testing.T) {
		insns := []Instruction{
			Ldx(8, R6, R1, CtxOffData),
			Ldx(8, R8, R6, 8), // faults on a short packet
			JmpImm(JmpEq, R8, 99, 1),
			MovImm(R0, 1),
			MovImm(R0, 2),
			Exit(),
		}
		load := func() *Program {
			p, err := loadUnverified("pfault", insns)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		pj, pi := load(), load()
		for _, pkt := range [][]byte{make([]byte, 4), make([]byte, 16)} {
			_, stJ, errJ := pj.Run(&Ctx{Packet: pkt}, nil)
			_, stI, errI := pi.RunInterp(&Ctx{Packet: pkt}, nil)
			if stJ != stI || errString(errJ) != errString(errI) {
				t.Fatalf("run diverged: (%+v %v) vs reference (%+v %v)", stJ, errJ, stI, errI)
			}
		}
		want := []uint64{2, 2, 1, 1, 1, 1} // the short packet stops at slot 1
		if hj, hi := pj.Hits(), pi.Hits(); !reflect.DeepEqual(hj, want) || !reflect.DeepEqual(hi, want) {
			t.Fatalf("hits: run %v, reference %v, want %v", hj, hi, want)
		}
		if pj.Stats().Faults != 1 {
			t.Fatalf("faults = %d, want 1", pj.Stats().Faults)
		}
	})
}

// profShapeInsns is a verifiable policy that drives every memory region
// through the generic kinds — ctx fields, a bounded packet load and store,
// stack store and load, a map lookup keyed off the stack, map-value load
// and store — and a tail call. fd 3 is an 8-byte-value array map, fd 4 a
// prog array.
func profShapeInsns() []Instruction {
	insns := []Instruction{
		MovReg(R9, R1),
		Ldx(8, R6, R1, CtxOffData),
		Ldx(8, R7, R1, CtxOffDataEnd),
		MovReg(R2, R6),
		ALUImm(ALUAdd, R2, 16),
		JmpReg(JmpGt, R2, R7, 20), // -> tail
		Ldx(8, R8, R6, 8),
		JmpImm(JmpEq, R8, 99, 18), // -> tail
	}
	insns = append(insns, lookupThen(3, 0,
		JmpImm(JmpEq, R0, 0, 11), // -> tail
		Ldx(8, R3, R0, 0),
		ALUImm(ALUAdd, R3, 1),
		Stx(8, R0, R3, 0),
		Ldx(4, R4, R9, CtxOffHash),
		ALUImm(ALUAnd, R4, 3),
		StImm(1, R6, 0, 7),
		Ldx(4, R5, R10, -4),
		MovReg(R0, R3),
		ALUReg(ALUAdd, R0, R4),
		ALUReg(ALUAdd, R0, R5),
		Exit(),
	)...)
	// tail: hand the packet to prog-array slot 0 (r1 must be the ctx).
	insns = append(insns, MovReg(R1, R9))
	return append(insns, tailCallOr(4, 0, 0)...)
}

// profShapeWorld loads the every-region program and its tail-call leaf
// over fresh maps, and checks it decodes to the generic
// memory and call kinds.
func profShapeWorld(t *testing.T) (entry, leaf *Program) {
	t.Helper()
	arr := MustNewMap(MapSpec{Name: "fsarr", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	progArr := MustNewMap(MapSpec{Name: "fsprogs", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1})
	table := NewMapTable()
	table.Register(arr)     // fd 3
	table.Register(progArr) // fd 4
	leaf = MustLoad("fsleaf", profTestInsns(), LoadOptions{})
	if err := progArr.UpdateProg(0, leaf); err != nil {
		t.Fatal(err)
	}
	entry, err := Load("fsentry", profShapeInsns(), LoadOptions{MapTable: table})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[opKind]bool{}
	for _, o := range entry.code {
		seen[o.kind] = true
	}
	for _, k := range []opKind{kLoad, kStore, kCall} {
		if !seen[k] {
			t.Fatalf("kind %d missing from the decoded stream:\n%s", k, entry.TextSource())
		}
	}
	return entry, leaf
}

// TestAnnotatedDisasm: the disasm -profile rendering is TextSource with
// each instruction's hits and percentage in a trailing comment, one line
// per instruction (LDDW pairs render once), and re-assembles to the
// program's stream.
func TestAnnotatedDisasm(t *testing.T) {
	p := profRun(t, (*Program).Run)
	out := p.AnnotatedDisasm()
	if !strings.HasPrefix(out, "; ptest: 10 runs") {
		t.Fatalf("missing run summary:\n%s", out)
	}
	var annotated []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  ") {
			annotated = append(annotated, line)
		}
	}
	if len(annotated) != len(profTestInsns()) {
		t.Fatalf("got %d instruction lines, want %d:\n%s", len(annotated), len(profTestInsns()), out)
	}
	if !strings.Contains(annotated[0], "100.0%") || !strings.HasPrefix(annotated[0], "  r0 = 1 ") {
		t.Fatalf("hot line malformed: %q", annotated[0])
	}
	// Slot 3 never ran.
	if !strings.Contains(annotated[3], "; ") || !strings.HasSuffix(annotated[3], "   0.0%") {
		t.Fatalf("cold line malformed: %q", annotated[3])
	}
	f, err := Assemble(out, nil)
	if err != nil {
		t.Fatalf("annotated output does not assemble: %v\n%s", err, out)
	}
	if !slices.Equal(f.Insns, p.insns) {
		t.Fatalf("annotated output assembles to another stream:\n%s\nwant:\n%s", f.Text(), p.TextSource())
	}
}

// TestProfileTailCallAttribution: hits land on the program that executed
// the instruction.
func TestProfileTailCallAttribution(t *testing.T) {
	table, progArr, fd := progArrayTable("pfprogs", 4)
	leaf := MustLoad("pfleaf", []Instruction{MovImm(R0, 42), Exit()}, LoadOptions{})
	if err := progArr.UpdateProg(0, leaf); err != nil {
		t.Fatal(err)
	}
	entry, err := Load("pfentry", tailCallOr(fd, 0, 7), LoadOptions{MapTable: table})
	if err != nil {
		t.Fatal(err)
	}
	ret, _, err := entry.Run(nil, nil)
	if err != nil || ret != 42 {
		t.Fatalf("run = %d, %v", ret, err)
	}
	eh, lh := entry.Hits(), leaf.Hits()
	if lh[0] != 1 || lh[1] != 1 {
		t.Fatalf("leaf hits = %v", lh)
	}
	if eh[4] != 0 {
		t.Fatalf("entry post-tail-call slot hit: %v", eh)
	}
}
