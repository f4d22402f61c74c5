package hook

import (
	"testing"

	"syrup/internal/faults"
	"syrup/internal/trace"
)

// mkInputs builds a burst whose packets spread across verdict classes when
// run under a hash-mod steering program.
func mkInputs(n int) []Input {
	ins := make([]Input, n)
	for i := range ins {
		ins[i] = Input{
			Packet: []byte{byte(i), byte(i >> 8)},
			Hash:   uint32(i) * 2654435761,
			Port:   9000,
			Queue:  uint32(i % 4),
			Req:    uint64(i),
		}
	}
	return ins
}

// runBoth executes the same input sequence through Run (on one point) and
// RunBatch (on an identically configured second point), returning both
// verdict sequences and the two points for stats comparison.
func runBoth(t *testing.T, n int, site faults.Site, setup func(pt *Point)) ([]Verdict, []Verdict, *Point, *Point) {
	t.Helper()
	ins := mkInputs(n)
	one := NewPoint(newHost(), "t_diff_one", site)
	batch := NewPoint(newHost(), "t_diff_batch", site)
	setup(one)
	setup(batch)
	var ref []Verdict
	for _, in := range ins {
		ref = append(ref, one.Run(in))
	}
	got := batch.RunBatch(ins)
	return ref, got, one, batch
}

func assertEquivalent(t *testing.T, ref, got []Verdict, one, batch *Point) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("RunBatch returned %d verdicts, want %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("verdict %d: batch %+v, per-packet %+v", i, got[i], ref[i])
		}
	}
	if one.Stats() != batch.Stats() {
		t.Fatalf("stats diverged: batch %+v, per-packet %+v", batch.Stats(), one.Stats())
	}
	if ol, bl := one.Link(), batch.Link(); ol != nil && bl != nil && ol.Stats() != bl.Stats() {
		t.Fatalf("link stats diverged: batch %+v, per-packet %+v", bl.Stats(), ol.Stats())
	}
}

// TestRunBatchEquivalentSteering: a verdict-divergent burst (steer indexes
// vary per packet) through the JIT path.
func TestRunBatchEquivalentSteering(t *testing.T) {
	src := "r0 = *(u32 *)(r1 + 16)\nr0 %= 4\nexit\n"
	ref, got, one, batch := runBoth(t, 33, "", func(pt *Point) {
		if _, err := pt.Attach(mustProg(t, "hashmod", src)); err != nil {
			t.Fatal(err)
		}
	})
	assertEquivalent(t, ref, got, one, batch)
	steers := 0
	for _, v := range got {
		if v.Action == Steer {
			steers++
		}
	}
	if steers != len(got) {
		t.Fatalf("expected all steers, got %d/%d", steers, len(got))
	}
}

// TestRunBatchEquivalentFaulting: runtime faults must fall open per input
// with identical fault accounting.
func TestRunBatchEquivalentFaulting(t *testing.T) {
	ref, got, one, batch := runBoth(t, 9, "", func(pt *Point) {
		if _, err := pt.Attach(faultyProg(t)); err != nil {
			t.Fatal(err)
		}
	})
	assertEquivalent(t, ref, got, one, batch)
	for i, v := range got {
		if !v.Faulted || v.Action != Pass {
			t.Fatalf("verdict %d = %+v, want faulted pass", i, v)
		}
	}
}

// TestRunBatchEquivalentInjectedFaults: the chaos seam draws once per
// input, in input order, exactly as N individual Runs would.
func TestRunBatchEquivalentInjectedFaults(t *testing.T) {
	ref, got, one, batch := runBoth(t, 21, faults.SiteSocketSelect, func(pt *Point) {
		if _, err := pt.Attach(mustProg(t, "steer1", "r0 = 1\nexit\n")); err != nil {
			t.Fatal(err)
		}
		// Deterministic: every third draw fires.
		pt.host.Faults = everyNth(pt.host, faults.SiteSocketSelect, 3)
	})
	assertEquivalent(t, ref, got, one, batch)
	faults := 0
	for _, v := range got {
		if v.Faulted {
			faults++
		}
	}
	if faults != 7 {
		t.Fatalf("injected faults = %d, want 7", faults)
	}
}

// TestRunBatchEmptySlot: an empty point passes every input without
// counting runs, like Run.
func TestRunBatchEmptySlot(t *testing.T) {
	pt := NewPoint(newHost(), "t_batch_empty", "")
	out := pt.RunBatch(mkInputs(5))
	if len(out) != 5 {
		t.Fatalf("got %d verdicts", len(out))
	}
	for _, v := range out {
		if v.Action != Pass || v.Faulted {
			t.Fatalf("verdict %+v, want plain pass", v)
		}
	}
	if pt.Stats().Runs != 0 {
		t.Fatal("empty point counted runs")
	}
}

// TestRunBatchTraceSpans: batch dispatch records the same per-input spans
// as individual Runs.
func TestRunBatchTraceSpans(t *testing.T) {
	h := newHost()
	pt := NewPoint(h, "t_batch_trace", "")
	if _, err := pt.Attach(mustProg(t, "hashmod", "r0 = *(u32 *)(r1 + 16)\nr0 %= 4\nexit\n")); err != nil {
		t.Fatal(err)
	}
	rec := trace.New(64)
	h.Tracer = rec
	ins := mkInputs(6)
	out := pt.RunBatch(ins)
	spans := rec.Spans()
	if len(spans) != len(ins) {
		t.Fatalf("%d spans for %d inputs", len(spans), len(ins))
	}
	for i, sp := range spans {
		if sp.Req != ins[i].Req || sp.Stage != trace.StageHook {
			t.Fatalf("span %d = %+v", i, sp)
		}
		tv, exec := out[i].Trace()
		if sp.Verdict != tv || sp.Executor != exec {
			t.Fatalf("span %d verdict %v/%d, want %v/%d", i, sp.Verdict, sp.Executor, tv, exec)
		}
	}
}

// TestZeroAllocRunBatch gates the vectorized hot path: a warm burst
// dispatch through the JIT allocates nothing.
func TestZeroAllocRunBatch(t *testing.T) {
	pt := NewPoint(newHost(), "t_batch_zeroalloc", "")
	if _, err := pt.Attach(mustProg(t, "hashmod", "r0 = *(u32 *)(r1 + 16)\nr0 %= 4\nexit\n")); err != nil {
		t.Fatal(err)
	}
	ins := mkInputs(16)
	pt.RunBatch(ins) // warm the verdict slice
	if avg := testing.AllocsPerRun(300, func() { pt.RunBatch(ins) }); avg != 0 {
		t.Fatalf("RunBatch: %v allocs/op, want 0", avg)
	}
}
