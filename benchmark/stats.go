package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"syrup/internal/metrics"
)

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// floorSum is what a run costs when every stretch of it goes as fast as it
// ever did: reps[i] holds repetition i's stretches in order, and the
// result is the sum over the stretches of each one's fastest repetition.
func floorSum(reps [][]float64) (float64, error) {
	var sum float64
	for j := range reps[0] {
		fastest := reps[0][j]
		for i, r := range reps {
			if len(r) != len(reps[0]) {
				return 0, fmt.Errorf("repetition %d ran in %d stretches, repetition 0 in %d", i, len(r), len(reps[0]))
			}
			fastest = math.Min(fastest, r[j])
		}
		sum += fastest
	}
	return sum, nil
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), because that
// is the function the acceptance check of BENCHMARK.json is stated in. It
// needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// percentile reads quantile p (0..100) of a latency histogram more finely
// than Histogram.Percentile, which returns the lower edge of a log-linear
// bucket (1/64 of an octave, 1.6 %): two seeds then report either the same
// nanosecond or a whole bucket apart. The histogram's counts are private,
// so the ranks at which its answer changes are found by bisection through
// the public method, and the value is interpolated linearly by rank inside
// the bucket.
func percentile(h *metrics.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	// at reports the bucket edge of the sample of 1-based rank r; the half
	// keeps Percentile's ceil() on rank r whatever the rounding.
	at := func(r uint64) int64 { return h.Percentile(100 * (float64(r) - 0.5) / float64(n)) }
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	edge := at(rank)
	// first is the lowest rank in the bucket, next the lowest above it.
	first := 1 + uint64(sort.Search(int(rank-1), func(i int) bool { return at(uint64(i)+1) >= edge }))
	next := rank + 1 + uint64(sort.Search(int(n-rank), func(i int) bool { return at(rank+1+uint64(i)) > edge }))
	width := int64(1)
	if edge >= 64 {
		width = 1 << (bits.Len64(uint64(edge)) - 7)
	}
	if top := h.Max() + 1 - edge; top < width {
		width = top // the highest bucket is filled only up to the maximum
	}
	return float64(edge) + float64(width)*(float64(rank-first)+0.5)/float64(next-first)
}
