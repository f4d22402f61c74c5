// Package experiments regenerates every table and figure in the paper's
// evaluation (§5) on the simulated host: Fig. 2 (hash imbalance vs round
// robin), Fig. 6 (policy expressibility on a bimodal RocksDB workload),
// Fig. 7 (token-based QoS), Fig. 8 (cross-layer scheduling with ghOSt),
// Fig. 9 (MICA across SW/HW hooks), Table 2 (policy overheads), and
// Table 3 (Map operation latency).
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"syrup/internal/metrics"
	"syrup/internal/par"
	"syrup/internal/workload"
)

// Row is one data point in a series: an x value (offered load) plus named
// columns (latencies in µs, drop %, throughput).
type Row struct {
	X    float64
	Cols map[string]float64
}

// Series is one line on a figure.
type Series struct {
	Name string
	Rows []Row
}

// Result is a regenerated table/figure.
type Result struct {
	Name    string // e.g. "fig6"
	Title   string
	XLabel  string
	Columns []string // column order for formatting
	Series  []Series
	// Notes carries calibration remarks for EXPERIMENTS.md.
	Notes []string
}

// Format renders the result as an aligned text table, one block per
// series, matching the rows/series the paper plots.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Name, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n-- %s --\n", s.Name)
		fmt.Fprintf(&b, "%14s", r.XLabel)
		for _, c := range r.Columns {
			fmt.Fprintf(&b, "%16s", c)
		}
		b.WriteByte('\n')
		for _, row := range s.Rows {
			fmt.Fprintf(&b, "%14.0f", row.X)
			for _, c := range r.Columns {
				v, ok := row.Cols[c]
				if !ok {
					fmt.Fprintf(&b, "%16s", "-")
					continue
				}
				fmt.Fprintf(&b, "%16.1f", v)
			}
			b.WriteByte('\n')
		}
	}
	if len(r.Notes) > 0 {
		b.WriteString("\nnotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// StatsDigest renders every client-observable statistic of a run — exact
// counters and the full latency distribution shape — so two
// digests match only if the runs were statistically indistinguishable.
// The telemetry and worker-count differential gates diff these.
func StatsDigest(r *workload.Result) string {
	var b strings.Builder
	writeStats := func(name string, st *metrics.RunStats) {
		fmt.Fprintf(&b, "%s offered=%d completed=%d window=%d", name, st.Offered, st.Completed, st.WindowNanos)
		// The key predates Unanswered and keeps its name so pinned digests
		// hold; it counts every unanswered request, whatever the cause.
		if st.Unanswered > 0 {
			fmt.Fprintf(&b, " socket-overflow=%d", st.Unanswered)
		}
		h := st.Latency
		fmt.Fprintf(&b, " n=%d mean=%v min=%d max=%d p50=%d p90=%d p99=%d p999=%d\n",
			h.Count(), h.Mean(), h.Min(), h.Max(),
			h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Percentile(99.9))
	}
	writeStats("all", r.All)
	names := make([]string, 0, len(r.PerClass))
	for n := range r.PerClass {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeStats(n, r.PerClass[n])
	}
	return b.String()
}

// sweepSeeded fans out every (load, seed) pair — not just loads — so
// multi-seed figures use all cores even with few load points. Each pair is
// one RocksDB point; a load's row is the mean and spread of its seeds' p99
// and their mean drop share, aggregated in ascending seed order, and rows
// come back in input load order.
func sweepSeeded(rc RunConfig, loads []float64, seeds int, point func(load float64, seed int) rocksPoint) []Row {
	p99s := make([]float64, len(loads)*seeds)
	drops := make([]float64, len(loads)*seeds)
	par.Do(len(p99s), rc.Workers, func(i int) {
		r := runRocksPoint(point(loads[i/seeds], i%seeds)).Result
		p99s[i], drops[i] = float64(r.All.Latency.Percentile(99))/1000, 100*r.All.DropFraction()
	})
	rows := make([]Row, len(loads))
	for li, load := range loads {
		p99, sd := meanStdev(p99s[li*seeds : (li+1)*seeds])
		drop, _ := meanStdev(drops[li*seeds : (li+1)*seeds])
		rows[li] = Row{X: load, Cols: map[string]float64{
			"p99_us": p99, "p99_stdev_us": sd, "drop_pct": drop,
		}}
	}
	return rows
}

// sweepGrid evaluates fn at every (series, load) pair of a figure on the
// run's worker pool (each point owns a private simulation), all pairs in
// one pool, so one slow series does not serialize behind another. Rows per
// series come back in input load order.
func sweepGrid(rc RunConfig, nSeries int, loads []float64, fn func(si int, load float64) Row) [][]Row {
	rows := make([][]Row, nSeries)
	for si := range rows {
		rows[si] = make([]Row, len(loads))
	}
	par.Do(nSeries*len(loads), rc.Workers, func(i int) {
		si, li := i/len(loads), i%len(loads)
		rows[si][li] = fn(si, loads[li])
	})
	return rows
}

// loadsBetween builds n evenly spaced loads in [lo, hi].
func loadsBetween(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{hi}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// mean and stdev over a sample.
func meanStdev(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	m := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return m, math.Sqrt(ss / float64(len(xs)))
}
