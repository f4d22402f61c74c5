package metrics

import "fmt"

// RunStats aggregates everything one experiment data point needs: request
// latency distribution, completed and unanswered counts, and the
// measurement window so throughput can be derived.
type RunStats struct {
	Latency *Histogram

	Offered   uint64 // requests injected during the measure window
	Completed uint64 // responses received during the measure window
	// DeadlineHits counts completions within the generator's deadline —
	// the goodput numerator. Zero unless the workload set a Deadline.
	DeadlineHits uint64

	// Unanswered counts measured requests that never got a response,
	// whatever stopped them: a ring, backlog or socket overflow, a policy
	// DROP, or a request still queued when the run drained. The client
	// cannot tell these apart; the layers' own counters can.
	Unanswered uint64

	WindowNanos int64 // measurement window length (virtual ns)
}

// NewRunStats returns an empty RunStats.
func NewRunStats() *RunStats {
	return &RunStats{Latency: NewHistogram()}
}

// TotalDrops reports the requests that never completed: Unanswered.
func (r *RunStats) TotalDrops() uint64 { return r.Unanswered }

// DropFraction reports drops as a fraction of offered load in [0,1].
func (r *RunStats) DropFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.TotalDrops()) / float64(r.Offered)
}

// ThroughputRPS reports completed requests per second of virtual time.
func (r *RunStats) ThroughputRPS() float64 {
	if r.WindowNanos <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.WindowNanos) / 1e9)
}

// String renders a one-line summary.
func (r *RunStats) String() string {
	return fmt.Sprintf("offered=%d completed=%d drops=%.2f%% tput=%.0frps lat[%v]",
		r.Offered, r.Completed, 100*r.DropFraction(), r.ThroughputRPS(), r.Latency)
}

// Merge folds other into r (used when aggregating per-class stats).
func (r *RunStats) Merge(other *RunStats) {
	r.Latency.Merge(other.Latency)
	r.Offered += other.Offered
	r.Completed += other.Completed
	r.DeadlineHits += other.DeadlineHits
	r.Unanswered += other.Unanswered
	if other.WindowNanos > r.WindowNanos {
		r.WindowNanos = other.WindowNanos
	}
}

// CounterValue is one named counter reading. Counters live as plain
// fields on whatever owns them (a hook point, a link, a daemon); a host
// publishes them by enumerating its owners into a name-sorted slice of
// these (syrupd.Daemon.Counters), so every reading is per host.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}
