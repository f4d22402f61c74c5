package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The naive* functions are the full-scan read path this package shipped
// before reads became span-bounded and single-pass: one walk over all
// buckets per percentile, and a window that diffs every bucket into a
// scratch array before walking it once per percentile. They are the
// reference the differential test holds the production code to. They read
// a histogram's counts and a window's baseline through base, as the
// production code does, but walk every bucket of the window.

func naivePercentile(h *Histogram, p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketLow(h.base + i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

func naiveSummarize(h *Histogram) Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   naivePercentile(h, 50),
		P90:   naivePercentile(h, 90),
		P99:   naivePercentile(h, 99),
		P999:  naivePercentile(h, 99.9),
		Max:   h.Max(),
	}
}

// naiveWindow keeps its baseline and interval over the whole int64 range,
// indexed by bucket.
type naiveWindow struct {
	h    *Histogram
	prev []uint64
	diff []uint64
}

func newNaiveWindow(h *Histogram) *naiveWindow {
	return &naiveWindow{h: h, prev: make([]uint64, bucketCount), diff: make([]uint64, bucketCount)}
}

func (w *naiveWindow) Advance() WindowStats {
	var n uint64
	for i, c := range w.h.counts {
		b := w.h.base + i
		d := c - w.prev[b]
		w.diff[b] = d
		n += d
		w.prev[b] = c
	}
	if n == 0 {
		return WindowStats{}
	}
	return WindowStats{Count: n, P50: naiveDiffPercentile(w.diff, n, 50), P99: naiveDiffPercentile(w.diff, n, 99)}
}

func naiveDiffPercentile(counts []uint64, n uint64, p float64) int64 {
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return bucketLow(len(counts) - 1)
}

// TestDifferentialSpanReads drives random record/advance interleavings through the production read path and the naive full-scan
// reference side by side: several windows on one histogram advancing at
// different moments, empty intervals, single-bucket windows, the extreme
// values 0 and MaxInt64, and spans that grow on either end.
func TestDifferentialSpanReads(t *testing.T) {
	quantiles := []float64{-1, 0, 0.1, 25, 50, 90, 99, 99.9, 99.999, 100, 120}
	for seed := uint64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewPCG(seed, 0x5eed))
		h := NewHistogram()
		wins := []*HistogramWindow{NewHistogramWindow(h)}
		refs := []*naiveWindow{newNaiveWindow(h)}
		// The value source drifts: a narrow band that widens downward and
		// upward as the run goes on, with rare extremes.
		lo, hi := int64(20_000), int64(20_100)
		draw := func() int64 {
			switch r.IntN(64) {
			case 0:
				return 0
			case 1:
				return math.MaxInt64
			case 2:
				return -5 // clamped to 0
			case 3:
				lo /= 2
			case 4:
				if hi < math.MaxInt64/4 {
					hi *= 3
				}
			}
			return lo + r.Int64N(hi-lo+1)
		}
		for step := 0; step < 600; step++ {
			switch op := r.IntN(20); {
			case op < 9:
				for n := r.IntN(40); n > 0; n-- {
					h.Record(draw())
				}
			case op < 11: // a single-bucket interval
				v := draw()
				for n := 1 + r.IntN(5); n > 0; n-- {
					h.Record(v)
				}
			case op < 17: // advance one window (possibly twice: an empty interval)
				i := r.IntN(len(wins))
				for n := 1 + r.IntN(2); n > 0; n-- {
					got, want := wins[i].Advance(), refs[i].Advance()
					if got != want {
						t.Fatalf("seed %d step %d window %d: Advance = %+v, reference %+v", seed, step, i, got, want)
					}
				}
			case op < 18: // the band narrows back
				lo, hi = 20_000, 20_100
			case op < 19 && len(wins) < 4: // a window joining mid-run
				wins = append(wins, NewHistogramWindow(h))
				refs = append(refs, newNaiveWindow(h))
			}
			if got, want := h.Summarize(), naiveSummarize(h); got != want {
				t.Fatalf("seed %d step %d: Summarize = %+v, reference %+v", seed, step, got, want)
			}
			out := make([]int64, len(quantiles))
			h.Percentiles(quantiles, out)
			for k, p := range quantiles {
				want := naivePercentile(h, p)
				if got := h.Percentile(p); got != want {
					t.Fatalf("seed %d step %d: Percentile(%v) = %d, reference %d", seed, step, p, got, want)
				}
				if out[k] != want {
					t.Fatalf("seed %d step %d: Percentiles[%v] = %d, reference %d", seed, step, p, out[k], want)
				}
			}
		}
		// Every window ends on the same baseline as its reference.
		for i := range wins {
			if got, want := wins[i].Advance(), refs[i].Advance(); got != want {
				t.Fatalf("seed %d final window %d: Advance = %+v, reference %+v", seed, i, got, want)
			}
			w := wins[i]
			for b, c := range w.prev {
				if want := refs[i].prev[w.base+b]; c != want {
					t.Fatalf("seed %d window %d: baseline bucket %d = %d, reference %d", seed, i, w.base+b, c, want)
				}
			}
		}
	}
}

// TestZeroAllocHistogramReads gates the per-tick path and what keeps a
// run's histograms out of the timed run: recording any value in the eager
// octaves [2^13, 2^22) ns, merging two such histograms, a window advance
// and multi-quantile reads allocate nothing and leave every window as
// NewHistogram made it. Each run records both edges, so a narrower eager
// window would widen, and fail the window check, even if it did so on
// AllocsPerRun's warm-up call.
func TestZeroAllocHistogramReads(t *testing.T) {
	h, b := NewHistogram(), NewHistogram()
	w := NewHistogramWindow(h)
	var out [3]int64
	r := rand.New(rand.NewPCG(5, 6))
	allocs := testing.AllocsPerRun(200, func() {
		for _, x := range []*Histogram{h, b} {
			x.Record(1 << 13)
			x.Record(1<<22 - 1)
			for i := 0; i < 16; i++ {
				x.Record(1<<13 + r.Int64N(1<<22-1<<13))
			}
		}
		h.Merge(b)
		w.Advance()
		h.Percentiles([]float64{50, 99, 99.9}, out[:])
		h.Percentile(99)
		h.Summarize()
	})
	if allocs != 0 {
		t.Fatalf("histogram record, merge and reads allocate %.1f/run, want 0", allocs)
	}
	for _, x := range []*Histogram{h, b} {
		if x.base != eagerBase || len(x.counts) != eagerEnd-eagerBase {
			t.Fatalf("window widened to [%d, %d), want [%d, %d)", x.base, x.base+len(x.counts), eagerBase, eagerEnd)
		}
	}
	if w.base != eagerBase || len(w.prev) != eagerEnd-eagerBase {
		t.Fatalf("baseline re-laid to [%d, %d), want [%d, %d)", w.base, w.base+len(w.prev), eagerBase, eagerEnd)
	}
}

// tickFeed records the benchmark probe's per-tick load: 16 samples spread
// over four octaves (10µs..160µs).
func tickFeed(h *Histogram, r *rand.Rand) {
	for i := 0; i < 16; i++ {
		h.Record(10_000 + r.Int64N(150_000))
	}
}

// BenchmarkHistogramWindowAdvance mirrors the ledger's
// metrics.hist_window_advance probe: a warm histogram, 16 records per
// tick over a 4-octave span, one Advance. The idle shape is a tick
// without traffic.
func BenchmarkHistogramWindowAdvance(b *testing.B) {
	for _, idle := range []bool{false, true} {
		name := "busy"
		if idle {
			name = "idle"
		}
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewPCG(1, 2))
			h := NewHistogram()
			for i := 0; i < 1<<12; i++ {
				tickFeed(h, r)
			}
			w := NewHistogramWindow(h)
			w.Advance()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !idle {
					tickFeed(h, r)
				}
				w.Advance()
			}
		})
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
}
