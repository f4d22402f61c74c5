package metrics

import (
	"math"
	"math/rand/v2"
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

// Property: adjacent buckets tile the value space (bucketIndex(bucketLow(i)) == i).
func TestPropertyBucketLowMapsBack(t *testing.T) {
	for i := 0; i < bucketCount; i++ {
		low := bucketLow(i)
		if low < 0 { // overflowed past int64 range; ignore tail octaves
			continue
		}
		if got := bucketIndex(low); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", i, low, got)
		}
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

func TestMergeAndReset(t *testing.T) {
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
	a.Reset()
	if a.Count() != 0 || a.Percentile(99) != 0 {
		t.Fatal("reset did not clear histogram")
	}
	a.Record(7)
	if a.Min() != 7 || a.Max() != 7 {
		t.Fatal("histogram unusable after reset")
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
