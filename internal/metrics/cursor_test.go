package metrics

import "testing"

// TestCursorTwoConsumers is the regression test for a destructive
// process-global delta baseline: two consumers polling deltas
// concurrently-in-time (interleaved calls) must each observe the full
// increase between their own polls, not partition it.
func TestCursorTwoConsumers(t *testing.T) {
	c := NewCounter("cursor_test_interleaved")
	sampler := NewCursor()
	stats := NewCursor()
	// Drain anything earlier tests left in the shared registry.
	sampler.Delta()
	stats.Delta()

	c.Add(7)
	if got := sampler.Delta()["cursor_test_interleaved"]; got != 7 {
		t.Fatalf("sampler first delta = %d, want 7", got)
	}
	// A shared baseline would return 0 here: the sampler's call just
	// advanced it.
	if got := stats.Delta()["cursor_test_interleaved"]; got != 7 {
		t.Fatalf("stats consumer saw %d, want the full 7 (baseline stolen?)", got)
	}

	c.Add(3)
	if got := stats.Delta()["cursor_test_interleaved"]; got != 3 {
		t.Fatalf("stats second delta = %d, want 3", got)
	}
	c.Add(2)
	// Sampler missed the +3 poll round; it must see the cumulative +5.
	if got := sampler.Delta()["cursor_test_interleaved"]; got != 5 {
		t.Fatalf("sampler second delta = %d, want 5", got)
	}
	if got := c.Load(); got != 12 {
		t.Fatalf("cursor reads must not mutate the counter: Load = %d, want 12", got)
	}
}

func TestCursorDeltaOf(t *testing.T) {
	c := NewCounter("cursor_test_single")
	cu := NewCursor()
	cu.DeltaOf(c)
	c.Add(4)
	if got := cu.DeltaOf(c); got != 4 {
		t.Fatalf("DeltaOf = %d, want 4", got)
	}
	if got := cu.DeltaOf(c); got != 0 {
		t.Fatalf("repeated DeltaOf = %d, want 0", got)
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
