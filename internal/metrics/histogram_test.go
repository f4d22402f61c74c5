package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBucketRoundTripSmall(t *testing.T) {
	for v := int64(0); v < 64; v++ {
		i := bucketIndex(v)
		if low := bucketLow(i); low != v {
			t.Fatalf("small value %d not exact: bucket %d low %d", v, i, low)
		}
	}
}

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		if i >= bucketCount {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		prev = i
	}
}

// Property: bucketLow(bucketIndex(v)) <= v and relative error < 1/64.
func TestPropertyBucketError(t *testing.T) {
	f := func(raw uint64) bool {
		v := int64(raw & math.MaxInt64)
		i := bucketIndex(v)
		low := bucketLow(i)
		if low > v {
			return false
		}
		if v >= 64 {
			return float64(v-low)/float64(v) < 1.0/64+1e-12
		}
		return low == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacent buckets tile the value space (bucketIndex(bucketLow(i)) == i),
// every bucket is reachable, and the last one holds math.MaxInt64.
func TestPropertyBucketLowMapsBack(t *testing.T) {
	for i := 0; i < bucketCount; i++ {
		low := bucketLow(i)
		if low < 0 {
			t.Fatalf("bucketLow(%d) = %d: the bucket starts past the int64 range", i, low)
		}
		if got := bucketIndex(low); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, low, got)
		}
	}
	if got := bucketIndex(math.MaxInt64); got != bucketCount-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want the last bucket %d", got, bucketCount-1)
	}
}

func TestPercentileAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := NewHistogram()
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mixture resembling a latency distribution: 99% short, 1% long.
		var v int64
		if rng.Float64() < 0.99 {
			v = 10_000 + rng.Int64N(2_000)
		} else {
			v = 700_000 + rng.Int64N(100_000)
		}
		h.Record(v)
		samples = append(samples, v)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := exactPercentile(samples, p)
		got := h.Percentile(p)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 1.0/32 {
			t.Errorf("p%.1f: hist %d vs exact %d (rel err %.4f)", p, got, exact, relErr)
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(99) != 0 || h.Max() != 0 || h.Min() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(42)
	for _, p := range []float64{-5, 0, 50, 99, 100, 200} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("single-sample percentile(%v) = %d", p, got)
		}
	}
	if h.Min() != 42 || h.Max() != 42 {
		t.Fatal("min/max wrong")
	}
}

func TestRecordNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-100)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%d", h.Min())
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
}

// fullHistogram is a histogram whose window holds every bucket of the
// int64 range from the start: the reference a widening histogram is held
// to.
func fullHistogram(vs ...int64) *Histogram {
	h := &Histogram{counts: make([]uint64, bucketCount), min: math.MaxInt64}
	for _, v := range vs {
		h.Record(v)
	}
	return h
}

// newHistogram is NewHistogram with vs recorded.
func newHistogram(vs ...int64) *Histogram {
	h := NewHistogram()
	for _, v := range vs {
		h.Record(v)
	}
	return h
}

// sameReads fails unless got and want answer every read alike.
func sameReads(t *testing.T, what string, got, want *Histogram) {
	t.Helper()
	if got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max() || got.Mean() != want.Mean() {
		t.Fatalf("%s: count/min/max/mean %d/%d/%d/%v, reference %d/%d/%d/%v", what,
			got.Count(), got.Min(), got.Max(), got.Mean(), want.Count(), want.Min(), want.Max(), want.Mean())
	}
	if g, w := got.Summarize(), want.Summarize(); g != w {
		t.Fatalf("%s: Summarize = %+v, reference %+v", what, g, w)
	}
	ps := []float64{0, 1, 25, 50, 75, 90, 99, 99.9, 100}
	g, w := make([]int64, len(ps)), make([]int64, len(ps))
	got.Percentiles(ps, g)
	want.Percentiles(ps, w)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: Percentiles = %v, reference %v", what, g, w)
	}
}

// octave returns the first bucket of the octave holding v: the bucket a
// window widened to v starts at, or ends before.
func octave(v int64) int { return bucketIndex(v) &^ (subBuckets - 1) }

// TestGrowthMatchesFullRange: a histogram that starts with the octaves
// [2^13, 2^22) ns and widens by whole octaves to samples below and above
// them reads exactly like one that held the whole int64 range from the
// start — samples at both edges, below, above, 0 and MaxInt64, every Merge
// direction (spans inside, across and wholly outside the window), and
// windows advancing across a downward and an upward growth tick.
func TestGrowthMatchesFullRange(t *testing.T) {
	if eagerBase != octave(1<<13) || eagerEnd != octave(1<<22) || eagerEnd-eagerBase != 576 {
		t.Fatalf("eager window [%d, %d), want [%d, %d): the 576 buckets of [2^13, 2^22)",
			eagerBase, eagerEnd, octave(1<<13), octave(1<<22))
	}
	h, ref := NewHistogram(), fullHistogram()
	// every advances on every tick; odd on every other, so one of its
	// intervals spans both growth ticks; late starts after the first.
	every, refEvery := NewHistogramWindow(h), NewHistogramWindow(ref)
	odd, refOdd := NewHistogramWindow(h), NewHistogramWindow(ref)
	var late, refLate *HistogramWindow
	ticks := []struct {
		vs        []int64
		base, end int
	}{
		{[]int64{20_000, 1 << 13, 35_000, 1<<22 - 1}, eagerBase, eagerEnd}, // both edges
		{nil, eagerBase, eagerEnd},
		{[]int64{1<<13 - 1, 40_000}, octave(1 << 12), eagerEnd},      // downward, one octave
		{[]int64{5_000, 1 << 12}, octave(1 << 12), eagerEnd},         // inside the new octave
		{[]int64{1 << 22, 50_000}, octave(1 << 12), octave(1 << 23)}, // upward, one octave
		{[]int64{300, 1 << 30}, octave(300), octave(1 << 31)},        // several octaves each way
		{[]int64{math.MaxInt64, 0, -3}, 0, bucketCount},
		{[]int64{60_000}, 0, bucketCount},
	}
	for i, tick := range ticks {
		for _, v := range tick.vs {
			h.Record(v)
			ref.Record(v)
		}
		if h.base != tick.base || h.base+len(h.counts) != tick.end {
			t.Fatalf("tick %d: window [%d, %d), want [%d, %d)", i, h.base, h.base+len(h.counts), tick.base, tick.end)
		}
		sameReads(t, fmt.Sprint("after tick ", i), h, ref)
		wins := []*HistogramWindow{every}
		refs := []*HistogramWindow{refEvery}
		if i%2 == 1 {
			wins, refs = append(wins, odd), append(refs, refOdd)
		}
		if late != nil {
			wins, refs = append(wins, late), append(refs, refLate)
		}
		for k, w := range wins {
			if got, want := w.Advance(), refs[k].Advance(); got != want {
				t.Fatalf("tick %d window %d: Advance = %+v, reference %+v", i, k, got, want)
			}
			if w.base != h.base || len(w.prev) != len(h.counts) {
				t.Fatalf("tick %d window %d: baseline [%d, %d) over a histogram of [%d, %d)", i, k,
					w.base, w.base+len(w.prev), h.base, h.base+len(h.counts))
			}
		}
		if late == nil {
			late, refLate = NewHistogramWindow(h), NewHistogramWindow(ref)
		}
	}

	sets := []struct {
		name string
		vs   []int64
	}{
		{"empty", nil},
		{"eager", []int64{10_000, 12_000, 1 << 13, 1<<22 - 1}},
		{"across low", []int64{7, 300, 30_000}},
		{"across high", []int64{30_000, 1 << 40, math.MaxInt64}},
		{"below", []int64{0, 7, 300, 5_000}}, // a span wholly below the eager window
		{"above", []int64{1 << 23, 1 << 30}}, // and wholly above it
	}
	for _, into := range sets {
		for _, from := range sets {
			what := from.name + " into " + into.name
			got, other := newHistogram(into.vs...), newHistogram(from.vs...)
			got.Merge(other)
			want := fullHistogram(into.vs...)
			want.Merge(fullHistogram(from.vs...))
			sameReads(t, what, got, want)
			if other.count > 0 {
				if lo, hi := other.span(); lo < got.base || hi >= got.base+len(got.counts) {
					t.Fatalf("%s: window [%d, %d) misses the merged span [%d, %d]", what, got.base, got.base+len(got.counts), lo, hi)
				}
			}
			// A merged histogram keeps recording outside its window like
			// the reference.
			got.Record(1 << 35)
			want.Record(1 << 35)
			got.Record(3)
			want.Record(3)
			sameReads(t, what+", then 2^35 and 3", got, want)
		}
	}
}

// TestNewHistogramAllocation pins what a histogram costs before its first
// sample: the 576 buckets of [2^13, 2^22) ns (4.5 KiB, which the allocator
// rounds to its 4.75 KiB size class) and the header — under 5 KiB, where
// the 1 601 buckets up to 2^30 ns took 13.25 KiB after rounding.
func TestNewHistogramAllocation(t *testing.T) {
	keep := make([]*Histogram, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewHistogram()
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(keep)) / 1024; per > 5 {
		t.Fatalf("NewHistogram allocates %.2f KiB, want <= 5", per)
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P50 < 450 || s.P50 > 510 {
		t.Fatalf("p50 = %d", s.P50)
	}
	if s.P99 < 960 || s.P99 > 1000 {
		t.Fatalf("p99 = %d", s.P99)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d", s.Max)
	}
}

func TestRunStats(t *testing.T) {
	r := NewRunStats()
	r.Offered = 1000
	r.Completed = 900
	r.Unanswered = 3
	r.WindowNanos = 1e9
	if r.TotalDrops() != 3 {
		t.Fatalf("total drops = %d", r.TotalDrops())
	}
	if got := r.DropFraction(); math.Abs(got-0.003) > 1e-9 {
		t.Fatalf("drop fraction = %v", got)
	}
	if got := r.ThroughputRPS(); math.Abs(got-900) > 1e-9 {
		t.Fatalf("throughput = %v", got)
	}

	other := NewRunStats()
	other.Offered = 10
	other.Unanswered = 1
	other.Latency.Record(5)
	r.Merge(other)
	if r.Offered != 1010 || r.TotalDrops() != 4 || r.Latency.Count() != 1 {
		t.Fatal("merge incorrect")
	}
}

func TestRunStatsEmpty(t *testing.T) {
	r := NewRunStats()
	if r.DropFraction() != 0 || r.ThroughputRPS() != 0 {
		t.Fatal("empty RunStats should report zeros")
	}
	if r.String() == "" {
		t.Fatal("String should render")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i&0xffff) + 10000)
	}
}

func BenchmarkHistogramPercentile(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 100000; i++ {
		h.Record(rng.Int64N(1_000_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Percentile(99)
	}
}

// exactPercentile computes a percentile from raw samples with the same rank
// convention as Histogram.Percentile: the oracle for the histogram's
// bucketing error bound.
func exactPercentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
