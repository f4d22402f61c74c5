package obs

import (
	"fmt"
	"sort"
	"strings"

	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// PromText renders one host's telemetry as Prometheus text exposition
// (version 0.0.4): every counter in counters (in the order given — a
// host's Counters() is name-sorted) as a counter metric, every histogram
// in hists by ascending name as a summary, and the latest point of every
// series in st (which may be nil). Timestamps are the sim clock in
// milliseconds — scrapers normalize deltas into true rates with them.
// Metric names are prefixed syrup_ and already legal Prometheus names
// (TestMetricNamesAreLegal).
func PromText(counters []metrics.CounterValue, hists map[string]*metrics.Histogram, st *Store, now sim.Time) string {
	var b strings.Builder
	ms := int64(now) / 1e6
	for _, cv := range counters {
		fmt.Fprintf(&b, "# TYPE syrup_%s counter\n", cv.Name)
		fmt.Fprintf(&b, "syrup_%s %d %d\n", cv.Name, cv.Value, ms)
	}
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum := hists[name].Summarize()
		fmt.Fprintf(&b, "# TYPE syrup_%s summary\n", name)
		fmt.Fprintf(&b, "syrup_%s_count %d %d\n", name, sum.Count, ms)
		fmt.Fprintf(&b, "syrup_%s{quantile=\"0.5\"} %g %d\n", name, float64(sum.P50)/1e3, ms)
		fmt.Fprintf(&b, "syrup_%s{quantile=\"0.99\"} %g %d\n", name, float64(sum.P99)/1e3, ms)
		fmt.Fprintf(&b, "syrup_%s{quantile=\"0.999\"} %g %d\n", name, float64(sum.P999)/1e3, ms)
	}
	if st != nil {
		for _, s := range st.Snapshot() {
			t, v, ok := LastPoint(s)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "# TYPE syrup_%s gauge\n", s.Name)
			fmt.Fprintf(&b, "syrup_%s %g %d\n", s.Name, v, t/1e6)
		}
	}
	return b.String()
}

// LastPoint returns the last complete point of a snapshot series. A
// series whose timestamp and value arrays disagree — a torn or
// hand-truncated recording — yields its last paired point, or no point
// at all, rather than an index panic.
func LastPoint(s SeriesJSON) (t int64, v float64, ok bool) {
	n := len(s.T)
	if len(s.V) < n {
		n = len(s.V)
	}
	if n == 0 {
		return 0, 0, false
	}
	return s.T[n-1], s.V[n-1], true
}
