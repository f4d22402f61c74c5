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
	// prev holds the bucket counts as of the previous Advance. Buckets
	// outside every span walked so far are zero in both prev and h.
	prev      []uint64
	prevCount uint64
	// resets is h.resets as of the previous Advance: when it moves, the
	// histogram was Reset under us and the baseline restarts from zero
	// instead of underflowing the bucket diffs.
	resets uint64
}

// NewHistogramWindow tracks h; the first Advance covers everything
// recorded so far.
func NewHistogramWindow(h *Histogram) *HistogramWindow {
	return &HistogramWindow{h: h, prev: make([]uint64, bucketCount), resets: h.resets}
}

// Advance closes the current interval: it returns the stats of samples
// recorded since the previous Advance and makes the histogram's current
// contents the next baseline. An empty interval returns zero stats.
// Percentiles are bucket lower bounds with no min/max clamp (the
// interval's extremes are not tracked), within the 1/64 relative error
// bound.
func (w *HistogramWindow) Advance() WindowStats {
	h := w.h
	if h.resets != w.resets {
		clear(w.prev)
		w.prevCount, w.resets = 0, h.resets
	}
	n := h.count - w.prevCount
	if n == 0 {
		return WindowStats{}
	}
	w.prevCount = h.count
	lo, hi := h.span()
	var q [2]int64
	resolve(h.counts, w.prev, lo, hi, n, []float64{50, 99}, q[:])
	copy(w.prev[lo:hi+1], h.counts[lo:hi+1])
	return WindowStats{Count: n, P50: q[0], P99: q[1]}
}
