package obs

import (
	"fmt"
	"math"

	"syrup/internal/sim"
)

// SLO is a service-level objective evaluated against a (possibly
// fleet-merged) series snapshot with the classic multi-window burn-rate
// rule: a sample is "bad" when its value exceeds Target; the burn rate of
// a window is the bad-sample fraction divided by the error Budget; the
// objective is burning when BOTH the short and long windows burn at or
// above 1 — each spends the budget at least as fast as it accrues. The
// short window makes alerts fast, the long window keeps one transient
// spike from tripping them.
type SLO struct {
	// Name identifies the objective in reports ("ls_p99", "drop_rate").
	Name string `json:"name"`
	// Series is the metric the objective watches, e.g. "latency_LS_p99_us".
	Series string `json:"series"`
	// Denom, when set, turns the watched value into the pointwise ratio
	// Series/(Series+Denom) — e.g. drop_rate/(drop_rate+rps) yields the
	// drop fraction per tick for a drop-rate budget.
	Denom string `json:"denom,omitempty"`
	// Target is the good/bad threshold on the watched value (µs for
	// percentile series, a fraction for ratio objectives).
	Target float64 `json:"target"`
	// Budget is the allowed bad-sample fraction (the error budget).
	Budget float64 `json:"budget"`
	// Short and Long are the burn-rate windows in sim time.
	Short sim.Time `json:"short_ns"`
	Long  sim.Time `json:"long_ns"`
}

// Validate refuses an objective that could never burn or never be
// evaluated: it needs a series, a finite target, a budget in (0, 1] and
// windows with 0 < Short <= Long.
func (o SLO) Validate() error {
	switch {
	case o.Series == "":
		return fmt.Errorf("slo %q: no series", o.Name)
	case math.IsNaN(o.Target) || math.IsInf(o.Target, 0):
		return fmt.Errorf("slo %q: target %v is not finite", o.Name, o.Target)
	case !(o.Budget > 0 && o.Budget <= 1):
		return fmt.Errorf("slo %q: budget %v is outside (0, 1]", o.Name, o.Budget)
	case !(o.Short > 0 && o.Short <= o.Long):
		return fmt.Errorf("slo %q: windows short=%d long=%d need 0 < short <= long", o.Name, o.Short, o.Long)
	}
	return nil
}

// SLOResult is one objective's evaluation.
type SLOResult struct {
	Name      string  `json:"name"`
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	Samples   int     `json:"samples"` // points in the long window
	Burning   bool    `json:"burning"`
	// NoData reports that at least one burn window held zero samples —
	// the series is missing, the scrape predates the first sampler tick,
	// or the window is shorter than the sampling period. A no-data result
	// is not evidence of health: consumers must treat it as "cannot
	// evaluate" (the adapt controller freezes the rule; syrup-top prints
	// NO-DATA), never as a pass.
	NoData bool `json:"no_data,omitempty"`
}

// String renders "ls_p99 burn=3.2x/2.1x BURNING"-style summaries.
func (r SLOResult) String() string {
	state := "ok"
	switch {
	case r.NoData:
		state = "NO-DATA"
	case r.Burning:
		state = "BURNING"
	}
	return fmt.Sprintf("%s short=%.2fx long=%.2fx n=%d %s",
		r.Name, r.ShortBurn, r.LongBurn, r.Samples, state)
}

// findSeries locates name in a snapshot.
func findSeries(snap []SeriesJSON, name string) (SeriesJSON, bool) {
	for _, s := range snap {
		if s.Name == name {
			return s, true
		}
	}
	return SeriesJSON{}, false
}

// values materializes the watched value stream: the raw series, or the
// Series/(Series+Denom) ratio aligned pointwise (equal timestamps — both
// come from the same sampler).
func (o SLO) values(snap []SeriesJSON) (t []int64, v []float64) {
	num, ok := findSeries(snap, o.Series)
	if !ok {
		return nil, nil
	}
	if o.Denom == "" {
		return num.T, num.V
	}
	den, ok := findSeries(snap, o.Denom)
	if !ok {
		return nil, nil
	}
	for i, ts := range num.T {
		dv, ok := den.LastBefore(ts)
		if !ok {
			continue
		}
		total := num.V[i] + dv
		t = append(t, ts)
		if total <= 0 {
			v = append(v, 0)
		} else {
			v = append(v, num.V[i]/total)
		}
	}
	return t, v
}

// points is an oldest-first view of one sample stream: a snapshot's arrays
// or a live ring. burn is generic over it so the controller's per-tick
// evaluation of a live *Series neither copies nor boxes.
type points interface {
	Len() int
	at(i int) (t int64, v float64)
}

// Len reports how many points the snapshot holds.
func (s SeriesJSON) Len() int { return len(s.T) }

func (s SeriesJSON) at(i int) (int64, float64) { return s.T[i], s.V[i] }

func (s *Series) at(i int) (int64, float64) {
	j := s.start + i
	if j >= len(s.t) {
		j -= len(s.t)
	}
	return s.t[j], s.v[j]
}

// burn computes the bad fraction over [now-window, now] divided by the
// budget, walking newest backward. No samples in the window means no
// evidence: burn 0 with n==0, which evaluate surfaces as an explicit
// NoData verdict rather than letting an empty window read as healthy.
func burn[P points](p P, now int64, window sim.Time, target, budget float64) (float64, int) {
	lo := now - int64(window)
	n, bad := 0, 0
	for i := p.Len() - 1; i >= 0; i-- {
		t, v := p.at(i)
		if t < lo {
			break
		}
		n++
		if v > target {
			bad++
		}
	}
	if n == 0 || budget <= 0 {
		return 0, n
	}
	return (float64(bad) / float64(n)) / budget, n
}

// evaluate runs the multi-window burn-rate rule over one sample stream.
func evaluate[P points](o SLO, p P, now sim.Time) SLOResult {
	shortBurn, nShort := burn(p, int64(now), o.Short, o.Target, o.Budget)
	longBurn, nLong := burn(p, int64(now), o.Long, o.Target, o.Budget)
	return SLOResult{
		Name:      o.Name,
		ShortBurn: shortBurn,
		LongBurn:  longBurn,
		Samples:   nLong,
		Burning:   nShort > 0 && nLong > 0 && shortBurn >= 1 && longBurn >= 1,
		NoData:    nShort == 0 || nLong == 0,
	}
}

// Evaluate runs the multi-window burn-rate rule against snap as of sim
// time now.
func (o SLO) Evaluate(snap []SeriesJSON, now sim.Time) SLOResult {
	t, v := o.values(snap)
	return evaluate(o, SeriesJSON{T: t, V: v}, now)
}

// EvaluateStore runs the objective against a live store — the in-process
// form the adapt controller evaluates every decision tick, with no
// snapshot copy on the Denom-free fast path.
func (o SLO) EvaluateStore(st *Store, now sim.Time) SLOResult {
	if o.Denom != "" {
		// Ratio objectives align two series pointwise; materialize both
		// and share the snapshot path.
		snap := make([]SeriesJSON, 0, 2)
		if num := st.Get(o.Series); num != nil {
			snap = append(snap, num.Snapshot())
		}
		if den := st.Get(o.Denom); den != nil {
			snap = append(snap, den.Snapshot())
		}
		return o.Evaluate(snap, now)
	}
	s := st.Get(o.Series)
	if s == nil {
		return evaluate(o, SeriesJSON{}, now)
	}
	return evaluate(o, s, now)
}

// EvaluateSLOs runs every objective against one snapshot.
func EvaluateSLOs(slos []SLO, snap []SeriesJSON, now sim.Time) []SLOResult {
	out := make([]SLOResult, len(slos))
	for i, o := range slos {
		out[i] = o.Evaluate(snap, now)
	}
	return out
}
