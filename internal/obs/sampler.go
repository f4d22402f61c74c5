package obs

import (
	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// DefaultPeriod is the sampling interval when Config.Period is zero.
const DefaultPeriod = sim.Millisecond

// Config selects what the telemetry plane records.
type Config struct {
	// Period is the sampling interval in sim time (default 1 ms).
	Period sim.Time
}

type gaugeReg struct {
	s  *Series
	fn func() float64
}

type rateReg struct {
	s    *Series
	fn   func() float64
	prev float64
}

type histReg struct {
	h                     *metrics.Histogram
	count, p50, p99, p999 *Series
	// The histogram's count and percentiles (ns) as of the last tick that
	// read them: a histogram only grows, so a tick on which the count has
	// not moved re-records q without touching a bucket.
	seenCount uint64
	q         [3]int64
}

type winReg struct {
	w               *metrics.HistogramWindow
	count, p50, p99 *Series
}

// Sampler snapshots registered gauges, rates, and histogram percentiles
// into a Store at every period boundary. Attach it to an engine via
// Attach; the engine invokes Sample through its passive hook, off the
// event queue.
type Sampler struct {
	store  *Store
	period sim.Time
	gauges []gaugeReg
	rates  []rateReg
	hists  []histReg
	wins   []winReg
}

// NewSampler builds a sampler and its backing store from cfg.
func NewSampler(cfg Config) *Sampler {
	period := cfg.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Sampler{
		store:  newStore(ViewTicks, period),
		period: period,
	}
}

// Store returns the backing time-series store; a nil sampler has none.
func (sa *Sampler) Store() *Store {
	if sa == nil {
		return nil
	}
	return sa.store
}

// Period returns the sampling interval.
func (sa *Sampler) Period() sim.Time { return sa.period }

// Gauge registers an instantaneous value sampled every tick (queue depth,
// ring occupancy, runnable threads). Names are metric names,
// [a-zA-Z_][a-zA-Z0-9_]* (TestMetricNamesAreLegal).
func (sa *Sampler) Gauge(name string, fn func() float64) {
	sa.gauges = append(sa.gauges, gaugeReg{s: sa.store.series(name), fn: fn})
}

// Rate registers a cumulative value differentiated into a per-second rate
// series: each tick records (cur-prev)/period. Feeding it a monotonically
// increasing count (completions, drops) yields RPS-style series.
func (sa *Sampler) Rate(name string, fn func() float64) {
	sa.rates = append(sa.rates, rateReg{s: sa.store.series(name), fn: fn})
}

// Histogram registers a live latency histogram; every tick records its
// count and p50/p99/p999 in microseconds as <name>_count, <name>_p50_us,
// <name>_p99_us, <name>_p999_us.
func (sa *Sampler) Histogram(name string, h *metrics.Histogram) {
	sa.hists = append(sa.hists, histReg{
		h:     h,
		count: sa.store.series(name + "_count"),
		p50:   sa.store.series(name + "_p50_us"),
		p99:   sa.store.series(name + "_p99_us"),
		p999:  sa.store.series(name + "_p999_us"),
	})
}

// WindowHistogram registers a live histogram sampled as interval
// percentiles: every tick records statistics of only the samples that
// arrived since the previous tick, as <name>_win_count, <name>_win_p50_us
// and <name>_win_p99_us. Unlike Histogram's cumulative percentiles, these
// series react to a load change within one tick and decay back once it
// passes — the form burn-rate SLOs and the adapt controller consume. An
// empty tick records zeros (no traffic is a healthy sample, not a gap).
func (sa *Sampler) WindowHistogram(name string, h *metrics.Histogram) {
	sa.wins = append(sa.wins, winReg{
		w:     metrics.NewHistogramWindow(h),
		count: sa.store.series(name + "_win_count"),
		p50:   sa.store.series(name + "_win_p50_us"),
		p99:   sa.store.series(name + "_win_p99_us"),
	})
}

// Attach installs the sampler on the engine's passive sampling hook.
func (sa *Sampler) Attach(eng *sim.Engine) { eng.SetSampler(sa.period, sa.Sample) }

// Sample records one tick at time at: it advances the store's clock once
// and writes every registered series into that slot. It is the engine hook
// target; it never schedules events and draws no randomness.
func (sa *Sampler) Sample(at sim.Time) {
	j := sa.store.tick(at)
	for i := range sa.gauges {
		g := &sa.gauges[i]
		g.s.v[j] = g.fn()
	}
	perSec := float64(sim.Second) / float64(sa.period)
	for i := range sa.rates {
		r := &sa.rates[i]
		cur := r.fn()
		r.s.v[j] = (cur - r.prev) * perSec
		r.prev = cur
	}
	for i := range sa.hists {
		h := &sa.hists[i]
		if n := h.h.Count(); n != h.seenCount {
			h.seenCount = n
			h.h.Percentiles([]float64{50, 99, 99.9}, h.q[:])
		}
		h.count.v[j] = float64(h.seenCount)
		h.p50.v[j] = float64(h.q[0]) / 1e3
		h.p99.v[j] = float64(h.q[1]) / 1e3
		h.p999.v[j] = float64(h.q[2]) / 1e3
	}
	for i := range sa.wins {
		w := &sa.wins[i]
		s := w.w.Advance()
		w.count.v[j] = float64(s.Count)
		w.p50.v[j] = float64(s.P50) / 1e3
		w.p99.v[j] = float64(s.P99) / 1e3
	}
}
