package adapt

import (
	"fmt"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// verdict is one detector evaluation. noData means the detector had no
// evidence this tick (missing series, empty window, unprimed baseline);
// the controller freezes the rule's streaks rather than reading absence
// as health — the same explicit-no-data discipline obs.SLO follows.
//
// The evidence string is rendered only when a decision records it
// (verdict.detail): eval itself stays off the allocator, so a tick on
// which no rule acts costs no formatting. A verdict carries either a
// fixed reason (why, by nil) or what its detector (by) needs to format
// one: the numbers x, y, n.
type verdict struct {
	firing bool
	noData bool
	why    string
	x, y   float64
	n      uint64
	by     detector
}

// detail renders the detector evidence for a Decision.
func (v verdict) detail() string {
	if v.by == nil {
		return v.why
	}
	return v.by.render(v)
}

type detector interface {
	eval(now sim.Time) verdict
	// render formats the evidence of a verdict this detector returned
	// with by set.
	render(v verdict) string
}

// compileDetector validates a spec and binds it to the controller's
// store and actuator.
func compileDetector(spec DetectorSpec, st *obs.Store, act Actuator) (detector, error) {
	switch spec.Kind {
	case "slo_burn":
		if spec.SLO == nil {
			return nil, fmt.Errorf("adapt: slo_burn detector needs an slo")
		}
		if spec.SLO.Short <= 0 || spec.SLO.Long <= 0 {
			return nil, fmt.Errorf("adapt: slo_burn %q needs explicit short/long windows", spec.SLO.Name)
		}
		return &sloBurn{o: *spec.SLO, st: st}, nil
	case "dispersion":
		if spec.Series == "" || spec.Denom == "" || spec.Ratio <= 0 {
			return nil, fmt.Errorf("adapt: dispersion detector needs series, denom, and ratio")
		}
		return &dispersion{num: spec.Series, den: spec.Denom, ratio: spec.Ratio, st: st}, nil
	case "imbalance":
		if len(spec.Group) < 2 || spec.Ratio <= 0 {
			return nil, fmt.Errorf("adapt: imbalance detector needs >=2 group series and a ratio")
		}
		return &imbalance{group: spec.Group, ratio: spec.Ratio, st: st}, nil
	case "fault_spike":
		if spec.Hook == "" || spec.Count == 0 {
			return nil, fmt.Errorf("adapt: fault_spike detector needs hook and count")
		}
		return &faultSpike{act: act, app: spec.App, hook: spec.Hook, count: spec.Count}, nil
	}
	return nil, fmt.Errorf("adapt: unknown detector kind %q", spec.Kind)
}

// sloBurn wraps obs.SLO multi-window burn-rate evaluation over the live
// store (p99 blowups against an error budget).
type sloBurn struct {
	o  obs.SLO
	st *obs.Store
}

func (d *sloBurn) eval(now sim.Time) verdict {
	r := d.o.EvaluateStore(d.st, now)
	return verdict{firing: r.Burning, noData: r.NoData, x: r.ShortBurn, y: r.LongBurn, n: uint64(r.Samples), by: d}
}

func (d *sloBurn) render(v verdict) string {
	return fmt.Sprintf("short=%.2fx long=%.2fx n=%d", v.x, v.y, v.n)
}

// dispersion fires when the latest Series/Denom ratio reaches the
// threshold — with windowed percentiles (latency_X_win_p99_us over
// latency_X_win_p50_us) that is the classic service-time-dispersion
// signal under which d-FCFS (hash) loses to c-FCFS (round_robin).
type dispersion struct {
	num, den string
	ratio    float64
	st       *obs.Store
}

func (d *dispersion) eval(now sim.Time) verdict {
	num, den := d.st.Get(d.num), d.st.Get(d.den)
	if num == nil || den == nil {
		return verdict{noData: true, why: "series missing"}
	}
	_, nv, ok1 := num.Last()
	_, dv, ok2 := den.Last()
	if !ok1 || !ok2 || dv <= 0 {
		return verdict{noData: true, why: "no samples"}
	}
	r := nv / dv
	return verdict{firing: r >= d.ratio, x: r, by: d}
}

func (d *dispersion) render(v verdict) string {
	return fmt.Sprintf("%s/%s=%.2f thr=%.2f", d.num, d.den, v.x, d.ratio)
}

// imbalance fires when the max of the group's latest gauge values
// reaches Ratio times their mean — per-queue NIC inflight, per-core
// softirq backlog, or per-shard hit gauges identifying a hot shard.
type imbalance struct {
	group []string
	ratio float64
	st    *obs.Store
}

func (d *imbalance) eval(now sim.Time) verdict {
	max, sum := 0.0, 0.0
	for i, name := range d.group {
		s := d.st.Get(name)
		if s == nil {
			return verdict{noData: true, why: "series missing: ", n: uint64(i), by: d}
		}
		_, v, ok := s.Last()
		if !ok {
			return verdict{noData: true, why: "no samples: ", n: uint64(i), by: d}
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / float64(len(d.group))
	if mean <= 0 {
		return verdict{noData: true, why: "idle group"}
	}
	return verdict{firing: max >= d.ratio*mean, x: max, y: mean, by: d}
}

func (d *imbalance) render(v verdict) string {
	if v.noData {
		return v.why + d.group[v.n] // the member that had no evidence
	}
	return fmt.Sprintf("max=%.1f mean=%.1f thr=%.2fx", v.x, v.y, d.ratio)
}

// faultSpike differentiates the hook-fault counter of one deployment per
// tick — the quarantine watchdog's delta signal on the controller's
// (usually faster) clock. The first tick only primes the baseline, so
// boot-time faults never count as a spike.
type faultSpike struct {
	act    Actuator
	app    uint32
	hook   string
	count  uint64
	last   uint64
	primed bool
}

func (d *faultSpike) eval(now sim.Time) verdict {
	cur := d.act.Faults(d.app, d.hook)
	if !d.primed {
		d.primed = true
		d.last = cur
		return verdict{noData: true, why: "baseline"}
	}
	var delta uint64
	if cur >= d.last {
		delta = cur - d.last
	} // else: the link was replaced and its stats restarted — window resets
	d.last = cur
	return verdict{firing: delta >= d.count, n: delta, by: d}
}

func (d *faultSpike) render(v verdict) string {
	return fmt.Sprintf("faults+%d thr=%d", v.n, d.count)
}
