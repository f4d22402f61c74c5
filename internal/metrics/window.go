package metrics

// WindowStats summarizes only the samples recorded between two Advance
// calls of a HistogramWindow.
type WindowStats struct {
	Count uint64
	P50   int64
	P99   int64
}

// HistogramWindow derives interval statistics from a live cumulative
// Histogram without mutating it: each Advance reports the percentiles of
// the samples recorded since the previous Advance. Cumulative percentiles
// converge and never come back down after a burst; interval percentiles
// react immediately and decay the moment the burst ends, which is what
// burn-rate SLOs and the adapt controller need. Advance is allocation-free
// and costs one walk over the histogram's occupied buckets; an interval
// without samples touches no bucket at all.
type HistogramWindow struct {
	h *Histogram
	// prev holds the counts of buckets [base, base+len(prev)) as of the
	// previous Advance: h's window, re-laid when h widens it. Buckets
	// outside every span walked so far are zero in both prev and h.
	prev      []uint64
	base      int
	prevCount uint64
}

// NewHistogramWindow tracks h; the first Advance covers everything
// recorded so far.
func NewHistogramWindow(h *Histogram) *HistogramWindow {
	return &HistogramWindow{h: h, prev: make([]uint64, len(h.counts)), base: h.base}
}

// Advance closes the current interval: it returns the stats of samples
// recorded since the previous Advance and makes the histogram's current
// contents the next baseline. An empty interval returns zero stats.
// Percentiles are bucket lower bounds with no min/max clamp (the
// interval's extremes are not tracked), within the 1/64 relative error
// bound.
func (w *HistogramWindow) Advance() WindowStats {
	h := w.h
	n := h.count - w.prevCount
	if n == 0 {
		return WindowStats{}
	}
	w.prevCount = h.count
	if len(w.prev) != len(h.counts) { // h widened: it never narrows
		w.prev = widen(w.prev, w.base, h.base, len(h.counts))
		w.base = h.base
	}
	lo, hi := h.span()
	counts := h.spanCounts(lo, hi)
	prev := w.prev[lo-w.base:]
	var q [2]int64
	resolve(counts, prev, lo, n, []float64{50, 99}, q[:])
	copy(prev, counts)
	return WindowStats{Count: n, P50: q[0], P99: q[1]}
}
