package trace

import (
	"testing"

	"syrup/internal/sim"
)

func span(req uint64, st, en sim.Time, stage Stage) Span {
	return Span{Req: req, Start: st, End: en, Stage: stage, CPU: int32(req % 4)}
}

func TestNilAndDisabledRecorderNoOp(t *testing.T) {
	var r *Recorder
	r.Record(span(1, 0, 10, StageNIC)) // must not panic
	if r.Enabled() || r.Total() != 0 || r.Spans() != nil || r.StageHistogram(StageNIC) != nil {
		t.Fatal("nil recorder not inert")
	}

	// A recorder that exists records.
	r = New(8)
	r.Record(span(1, 0, 10, StageNIC))
	if !r.Enabled() || r.Total() != 1 {
		t.Fatalf("recorder dropped span: total=%d", r.Total())
	}
}

func TestRingOverwritesOldestKeepsHistograms(t *testing.T) {
	r := New(4)
	for i := uint64(1); i <= 10; i++ {
		r.Record(span(i, 0, sim.Time(i*100), StageSocket))
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", r.Total(), r.Dropped())
	}
	got := r.Spans()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := uint64(7 + i); s.Req != want {
			t.Fatalf("span[%d].Req = %d, want %d (oldest-first order)", i, s.Req, want)
		}
	}
	// The histogram saw every span, including the overwritten ones.
	h := r.StageHistogram(StageSocket)
	if h.Count() != 10 {
		t.Fatalf("histogram count = %d, want 10", h.Count())
	}
	if h.Max() != 1000 || h.Min() != 100 {
		t.Fatalf("histogram range [%d,%d], want [100,1000]", h.Min(), h.Max())
	}
}

func TestInstantSpansSkipHistograms(t *testing.T) {
	r := New(8)
	r.Record(Span{Req: 1, Start: 5, End: 5, Stage: StageHook, Instant: true})
	r.Record(span(1, 0, 50, StageNIC))
	if r.StageHistogram(StageHook).Count() != 0 {
		t.Fatal("instant span leaked into stage histogram")
	}
	if r.StageHistogram(StageNIC).Count() != 1 {
		t.Fatal("interval span missing from stage histogram")
	}
	if len(r.Spans()) != 2 {
		t.Fatal("instant span missing from ring")
	}
}

func TestStageAndVerdictNames(t *testing.T) {
	for i := 0; i < numStages; i++ {
		if Stage(i).String() == "unknown" || Stage(i).Category() == "unknown" {
			t.Fatalf("stage %d unnamed", i)
		}
	}
	if Stage(200).String() != "unknown" || Stage(200).Category() != "unknown" {
		t.Fatal("out-of-range stage not flagged")
	}
	want := map[Verdict]string{VerdictNone: "", VerdictPass: "pass",
		VerdictDrop: "drop", VerdictSteer: "steer", VerdictFault: "fault"}
	for v, s := range want {
		if v.String() != s {
			t.Fatalf("verdict %d = %q, want %q", v, v.String(), s)
		}
	}
	// The reconciliation stages must be the disjoint datapath set.
	if len(Stages) != 5 {
		t.Fatalf("Stages has %d entries, want 5", len(Stages))
	}
	for _, s := range Stages {
		if s == StageRunqueue || s == StageGhost || s == StageHook {
			t.Fatalf("overlapping/control stage %v in reconciliation set", s)
		}
	}
}

func TestSpanJSON(t *testing.T) {
	s := Span{Req: 7, Start: 1000, End: 3000, Stage: StageProto,
		Verdict: VerdictSteer, CPU: 2, Executor: 3, Port: 9000,
		Hook: "socket_select:9000", Policy: "shinjuku", Err: false}
	j := s.JSON()
	if j.Req != 7 || j.Stage != "proto" || j.Category != "netstack" ||
		j.StartNS != 1000 || j.DurNS != 2000 || j.CPU != 2 ||
		j.Verdict != "steer" || j.Executor != 3 || j.Port != 9000 ||
		j.Hook != "socket_select:9000" || j.Policy != "shinjuku" {
		t.Fatalf("JSON form wrong: %+v", j)
	}
}

// TestZeroAllocRecordSteadyState gates the tentpole's allocation claim:
// once the ring is at capacity, Record must not allocate — Span holds
// only scalars and static string headers, and the stage histograms use
// fixed bucket arrays. Enforced by `make check` via the trace-check
// target.
func TestZeroAllocRecordSteadyState(t *testing.T) {
	r := New(256)
	for i := uint64(0); i < 256; i++ { // fill the ring
		r.Record(span(i, 0, 100, StageNIC))
	}
	i := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		r.Record(Span{Req: i, Start: sim.Time(i), End: sim.Time(i + 500),
			Stage: Stage(i % uint64(numStages)), Verdict: VerdictSteer,
			CPU: int32(i % 8), Executor: uint32(i % 4), Port: 9000,
			Hook: "xdp:eth0", Policy: "rss_override"})
		i++
	}); avg != 0 {
		t.Fatalf("steady-state Record allocates %v allocs/op, want 0", avg)
	}
}

// TestZeroAllocDisabledAndNil gates the off-by-default claim: a nil
// recorder, the only disabled one, must make Record free.
func TestZeroAllocDisabledAndNil(t *testing.T) {
	var nilR *Recorder
	if avg := testing.AllocsPerRun(1000, func() {
		nilR.Record(Span{Req: 1, Stage: StageOnCPU})
	}); avg != 0 {
		t.Fatalf("nil Record allocates %v allocs/op, want 0", avg)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := New(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Span{Req: uint64(i), Start: sim.Time(i), End: sim.Time(i + 700),
			Stage: StageSocket, Verdict: VerdictSteer, CPU: 1, Executor: 2})
	}
}
