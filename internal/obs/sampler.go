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
	// Counters folds the host's per-tick counter deltas into the store as
	// <name>_delta series: a host built with it set hands its daemon's
	// Counters to Sampler.Counters. Off by default — every counter is one
	// more series ring per host.
	Counters bool
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
	name                  string
	h                     *metrics.Histogram
	count, p50, p99, p999 *Series
	// The histogram's identity (Count, Resets) and percentiles (ns) as of
	// the last tick that read them; a tick on which the identity has not
	// moved re-appends q without touching a bucket.
	seenCount, seenResets uint64
	q                     [3]int64
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
	// counters is the registered counter source (nil when none is) and
	// baseline its readings as of the previous tick.
	counters func() []metrics.CounterValue
	baseline map[string]uint64
	gauges   []gaugeReg
	rates    []rateReg
	hists    []histReg
	wins     []winReg
}

// NewSampler builds a sampler and its backing store from cfg.
func NewSampler(cfg Config) *Sampler {
	period := cfg.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Sampler{
		store:  NewStore(seriesCapacity),
		period: period,
	}
}

// Store returns the backing time-series store.
func (sa *Sampler) Store() *Store { return sa.store }

// Period returns the sampling interval.
func (sa *Sampler) Period() sim.Time { return sa.period }

// Gauge registers an instantaneous value sampled every tick (queue depth,
// ring occupancy, runnable threads). Names are snake_case (lint-metrics).
func (sa *Sampler) Gauge(name string, fn func() float64) {
	sa.gauges = append(sa.gauges, gaugeReg{s: sa.store.Series(name), fn: fn})
}

// Rate registers a cumulative value differentiated into a per-second rate
// series: each tick records (cur-prev)/period. Feeding it a monotonically
// increasing count (completions, drops) yields RPS-style series.
func (sa *Sampler) Rate(name string, fn func() float64) {
	sa.rates = append(sa.rates, rateReg{s: sa.store.Series(name), fn: fn})
}

// Histogram registers a live latency histogram; every tick records its
// count and p50/p99/p999 in microseconds as <name>_count, <name>_p50_us,
// <name>_p99_us, <name>_p999_us — the same derived keys the syrupd stats
// op folds in.
func (sa *Sampler) Histogram(name string, h *metrics.Histogram) {
	sa.hists = append(sa.hists, histReg{
		name:  name,
		h:     h,
		count: sa.store.Series(name + "_count"),
		p50:   sa.store.Series(name + "_p50_us"),
		p99:   sa.store.Series(name + "_p99_us"),
		p999:  sa.store.Series(name + "_p999_us"),
	})
}

// Histograms returns the live histograms registered through Histogram, by
// name — the set the syrupd stats and metrics ops summarize. A nil sampler
// has none.
func (sa *Sampler) Histograms() map[string]*metrics.Histogram {
	if sa == nil {
		return nil
	}
	out := make(map[string]*metrics.Histogram, len(sa.hists))
	for _, h := range sa.hists {
		out[h.name] = h.h
	}
	return out
}

// Counters registers the source of cumulative counter readings (a host's
// syrupd.Daemon.Counters); every tick records each counter's increase
// since the previous tick as <name>_delta. The baseline is the sampler's
// own, so other delta consumers of the same counters are unaffected.
func (sa *Sampler) Counters(read func() []metrics.CounterValue) {
	sa.counters, sa.baseline = read, make(map[string]uint64)
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
		count: sa.store.Series(name + "_win_count"),
		p50:   sa.store.Series(name + "_win_p50_us"),
		p99:   sa.store.Series(name + "_win_p99_us"),
	})
}

// Attach installs the sampler on the engine's passive sampling hook.
func (sa *Sampler) Attach(eng *sim.Engine) { eng.SetSampler(sa.period, sa.Sample) }

// Sample records one tick at boundary time at. It is the engine hook
// target; it never schedules events and draws no randomness.
func (sa *Sampler) Sample(at sim.Time) {
	for i := range sa.gauges {
		g := &sa.gauges[i]
		g.s.Append(at, g.fn())
	}
	perSec := float64(sim.Second) / float64(sa.period)
	for i := range sa.rates {
		r := &sa.rates[i]
		cur := r.fn()
		r.s.Append(at, (cur-r.prev)*perSec)
		r.prev = cur
	}
	for i := range sa.hists {
		h := &sa.hists[i]
		if n, r := h.h.Count(), h.h.Resets(); n != h.seenCount || r != h.seenResets {
			h.seenCount, h.seenResets = n, r
			h.h.Percentiles([]float64{50, 99, 99.9}, h.q[:])
		}
		h.count.Append(at, float64(h.seenCount))
		h.p50.Append(at, float64(h.q[0])/1e3)
		h.p99.Append(at, float64(h.q[1])/1e3)
		h.p999.Append(at, float64(h.q[2])/1e3)
	}
	for i := range sa.wins {
		w := &sa.wins[i]
		s := w.w.Advance()
		w.count.Append(at, float64(s.Count))
		w.p50.Append(at, float64(s.P50)/1e3)
		w.p99.Append(at, float64(s.P99)/1e3)
	}
	if sa.counters != nil {
		for _, c := range metrics.DeltaSince(sa.baseline, sa.counters()) {
			sa.store.Series(c.Name+"_delta").Append(at, float64(c.Value))
		}
	}
}
