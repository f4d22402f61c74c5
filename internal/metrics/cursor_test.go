package metrics

import "testing"

// TestCursorTwoConsumers is the regression test for a shared delta
// baseline: two consumers taking deltas of the same counter at
// interleaved times must each observe the full increase between their own
// reads, not partition it — each passes DeltaSince its own baseline.
func TestCursorTwoConsumers(t *testing.T) {
	var c uint64
	read := func() []CounterValue { return []CounterValue{{Name: "c", Value: c}} }
	sampler, stats := map[string]uint64{}, map[string]uint64{}

	c += 7
	if got := DeltaSince(sampler, read())[0].Value; got != 7 {
		t.Fatalf("sampler first delta = %d, want 7", got)
	}
	// A shared baseline would return 0 here: the sampler's call just
	// advanced it.
	if got := DeltaSince(stats, read())[0].Value; got != 7 {
		t.Fatalf("stats consumer saw %d, want the full 7 (baseline stolen?)", got)
	}

	c += 3
	if got := DeltaSince(stats, read())[0].Value; got != 3 {
		t.Fatalf("stats second delta = %d, want 3", got)
	}
	c += 2
	// Sampler missed the +3 round; it must see the cumulative +5.
	if got := DeltaSince(sampler, read())[0].Value; got != 5 {
		t.Fatalf("sampler second delta = %d, want 5", got)
	}
}

// TestCursorDeltaOf: a reading advances the baseline of the counters it
// names and no other; a counter the baseline has not seen counts from
// zero; an unchanged counter reads 0.
func TestCursorDeltaOf(t *testing.T) {
	base := map[string]uint64{}
	got := DeltaSince(base, []CounterValue{{"a", 4}, {"b", 10}})
	if got[0] != (CounterValue{"a", 4}) || got[1] != (CounterValue{"b", 10}) {
		t.Fatalf("first reading = %v, want the full values", got)
	}
	if d := DeltaSince(base, []CounterValue{{"a", 9}})[0].Value; d != 5 {
		t.Fatalf("a delta = %d, want 5", d)
	}
	if d := DeltaSince(base, []CounterValue{{"a", 9}})[0].Value; d != 0 {
		t.Fatalf("repeated a delta = %d, want 0", d)
	}
	// b's baseline did not move while only a was read.
	if d := DeltaSince(base, []CounterValue{{"b", 11}})[0].Value; d != 1 {
		t.Fatalf("b delta = %d, want 1", d)
	}
}

func TestHistogramWindow(t *testing.T) {
	h := NewHistogram()
	w := NewHistogramWindow(h)
	for i := 0; i < 2000; i++ {
		h.Record(1000)
	}
	h.Record(50000)
	s := w.Advance()
	if s.Count != 2001 {
		t.Fatalf("window count = %d, want 2001", s.Count)
	}
	if s.P50 < 900 || s.P50 > 1100 {
		t.Fatalf("window p50 = %d, want ~1000", s.P50)
	}
	if s.P99 < 900 || s.P99 > 1100 {
		t.Fatalf("window p99 = %d, want ~1000 (2000/2001 samples at 1000)", s.P99)
	}

	// Second interval sees only the new samples — the burst's percentiles
	// appear instantly even though the cumulative histogram is dominated
	// by the first interval.
	for i := 0; i < 10; i++ {
		h.Record(80000)
	}
	s = w.Advance()
	if s.Count != 10 {
		t.Fatalf("second window count = %d, want 10", s.Count)
	}
	if s.P99 < 70000 {
		t.Fatalf("second window p99 = %d, want ~80000 (interval, not cumulative)", s.P99)
	}
	if cum := h.Percentile(99); cum >= 40000 {
		t.Fatalf("cumulative p99 = %d — expected it to lag the interval view", cum)
	}

	// Empty interval: zero stats, no underflow.
	if s = w.Advance(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty window = %+v, want zeros", s)
	}

	// Reset mid-flight rebases instead of underflowing.
	h.Reset()
	h.Record(2000)
	s = w.Advance()
	if s.Count != 1 || s.P99 > 2100 {
		t.Fatalf("post-reset window = %+v, want the single fresh sample", s)
	}
}
