// Package metrics provides the measurement substrate for the experiment
// harness: log-linear latency histograms with accurate tail percentiles
// (the paper reports 99% and 99.9% latencies), plus throughput and drop
// accounting per run.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram records non-negative int64 samples (typically latencies in
// nanoseconds) in log-linear buckets: values below 64 are exact, larger
// values use 64 linear sub-buckets per power of two, bounding relative
// bucketing error by 1/64 (<1.6%) across the whole int64 range — the same
// trade-off HdrHistogram makes. A new histogram holds the buckets up to
// 2^30 ns (about a second) and grows once to the whole range on the first
// sample past them. The zero value is not usable; call NewHistogram.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	subBuckets = 64
	// Octaves 6..62 (57 of them; no int64 reaches 2^63) each contribute
	// subBuckets buckets after the exact low range, so 64 + 56*64 + 63 =
	// 3711, bucketIndex(math.MaxInt64), is the largest index.
	bucketCount = subBuckets + 57*subBuckets
	// eagerBuckets, bucketIndex(1<<30)+1, is what NewHistogram allocates
	// (12.5 KiB): the simulated latencies stay far below a second. It is
	// a constant rather than grown from zero so that a run's histograms
	// are allocated when they are built, not on their first samples.
	eagerBuckets = subBuckets + 24*subBuckets + 1
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, eagerBuckets), min: math.MaxInt64}
}

// grow extends c with zero buckets to length n; it returns c unchanged
// when c is that long already.
func grow(c []uint64, n int) []uint64 {
	if len(c) >= n {
		return c
	}
	return append(c, make([]uint64, n-len(c))...)
}

// bucketIndex maps a sample to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	k := 63 - bits.LeadingZeros64(uint64(v)) // v in [2^k, 2^(k+1)), k >= 6
	return subBuckets + (k-6)*subBuckets + int(v>>uint(k-6)) - subBuckets
}

// bucketLow returns the smallest value mapping into bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	off := i - subBuckets
	k := 6 + off/subBuckets
	sub := off % subBuckets
	return int64(subBuckets+sub) << uint(k-6)
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(h.counts) {
		h.counts = grow(h.counts, bucketCount)
	}
	h.counts[i]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean reports the arithmetic mean of recorded samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample (exact), or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (exact), or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// span returns the occupied bucket range [lo, hi] of a non-empty
// histogram: min and max are exact, so every non-zero bucket lies between
// theirs. It is derived at read time — Record pays nothing for it — and
// lets readers walk the few hundred buckets in use instead of all of them.
func (h *Histogram) span() (lo, hi int) { return bucketIndex(h.min), bucketIndex(h.max) }

// rankOf returns the 1-based rank of quantile p (percent) among n samples.
func rankOf(p float64, n uint64) uint64 {
	if p < 0 {
		p = 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank == 0 {
		rank = 1
	}
	return rank
}

// resolve is the one rank-resolving bucket walk behind Percentile,
// Percentiles, Summarize and HistogramWindow.Advance. It walks buckets
// lo..hi once, stopping at the last quantile, and stores in out[k] the
// lower bound of the bucket holding the sample of rank rankOf(ps[k], n);
// ps must be ascending. A non-nil prev is a baseline: the walk then reads
// the interval counts[i]-prev[i] instead of counts[i].
func resolve(counts, prev []uint64, lo, hi int, n uint64, ps []float64, out []int64) {
	counts = counts[lo : hi+1]
	if prev != nil {
		prev = prev[lo:][:len(counts)]
	}
	var seen uint64
	i := 0
	for k, p := range ps {
		// The rank is computed out here so the bucket loop makes no call.
		rank := rankOf(p, n)
		for seen < rank && i < len(counts) {
			c := counts[i]
			if prev != nil {
				c -= prev[i]
			}
			seen += c
			i++
		}
		out[k] = bucketLow(lo + i - 1)
	}
}

// Percentiles resolves the quantiles ps (ascending, each in [0,100]) into
// out[:len(ps)] in one walk over the occupied buckets. Each value is the
// lower bound of the bucket containing the sample of that rank, clamped to
// the observed [min, max] so quantile 100 is Max(); an empty histogram
// yields zeros.
func (h *Histogram) Percentiles(ps []float64, out []int64) {
	m := len(ps)
	if h.count == 0 {
		clear(out[:m])
		return
	}
	for m > 0 && ps[m-1] >= 100 {
		m--
		out[m] = h.max
	}
	lo, hi := h.span()
	resolve(h.counts, nil, lo, hi, h.count, ps[:m], out)
	// Only the first occupied bucket can start below min, and none in the
	// span starts above max.
	for k := 0; k < m && out[k] < h.min; k++ {
		out[k] = h.min
	}
}

// Percentile returns the value at quantile p in [0,100]; see Percentiles.
func (h *Histogram) Percentile(p float64) int64 {
	var out [1]int64
	h.Percentiles([]float64{p}, out[:])
	return out[0]
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	h.counts = grow(h.counts, len(other.counts))
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String summarizes the distribution in microseconds.
func (h *Histogram) String() string {
	s := h.Summarize()
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus p999=%.1fus max=%.1fus",
		s.Count, s.Mean/1e3, float64(s.P50)/1e3, float64(s.P99)/1e3, float64(s.P999)/1e3,
		float64(s.Max)/1e3)
}

// Summary is a compact snapshot used by experiment result tables.
type Summary struct {
	Count uint64
	Mean  float64
	P50   int64
	P90   int64
	P99   int64
	P999  int64
	Max   int64
}

// Summarize extracts a Summary from the histogram in one bucket walk.
func (h *Histogram) Summarize() Summary {
	var q [4]int64
	h.Percentiles([]float64{50, 90, 99, 99.9}, q[:])
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   q[0],
		P90:   q[1],
		P99:   q[2],
		P999:  q[3],
		Max:   h.Max(),
	}
}
