package obs

import (
	"math"
	"strings"
	"testing"

	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// TestSLONoData: zero samples in either burn window is "cannot evaluate",
// not "healthy" — a window the sampler has not reached yet must not read
// as a pass.
func TestSLONoData(t *testing.T) {
	o := SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.1, Short: 30, Long: 100}

	// Missing series entirely.
	r := o.Evaluate(nil, 100)
	if !r.NoData || r.Burning {
		t.Fatalf("missing series: %+v, want NoData and not Burning", r)
	}
	if !strings.Contains(r.String(), "NO-DATA") {
		t.Fatalf("String() = %q, want NO-DATA state", r)
	}

	// Series exists but every point predates the window.
	snap := []SeriesJSON{{Name: "p99", T: []int64{5, 10}, V: []float64{500, 500}}}
	r = o.Evaluate(snap, 1000)
	if !r.NoData || r.Burning {
		t.Fatalf("stale series: %+v, want NoData (window past the data)", r)
	}

	// Data in the long window but none in the short window (scrape right
	// after a sampling gap): still no-data — the multi-window rule cannot
	// run on half its evidence.
	snap = []SeriesJSON{{Name: "p99", T: []int64{10, 20}, V: []float64{500, 500}}}
	r = o.Evaluate(snap, 100)
	if !r.NoData || r.Burning {
		t.Fatalf("short-window gap: %+v, want NoData", r)
	}

	// A long window that extends back past the first sample is fine as
	// long as both windows hold points: short history must still be able
	// to alert (syrup-top's committed snapshot relies on this).
	snap = []SeriesJSON{{Name: "p99", T: []int64{10, 20, 30}, V: []float64{500, 500, 500}}}
	r = o.Evaluate(snap, 30)
	if r.NoData || !r.Burning {
		t.Fatalf("young series with data in both windows: %+v, want Burning", r)
	}
}

// TestSLOValidate: an objective that could never burn (zero or negative
// budget, NaN target) or never be evaluated (no series, no windows) is
// refused; the edges of the legal ranges are not.
func TestSLOValidate(t *testing.T) {
	ok := SLO{Name: "s", Series: "p99", Target: 100, Budget: 1, Short: 100, Long: 100}
	if err := ok.Validate(); err != nil {
		t.Fatalf("budget 1, short == long: %v", err)
	}
	for name, mod := range map[string]func(*SLO){
		"no series":     func(o *SLO) { o.Series = "" },
		"NaN target":    func(o *SLO) { o.Target = math.NaN() },
		"inf target":    func(o *SLO) { o.Target = math.Inf(-1) },
		"zero budget":   func(o *SLO) { o.Budget = 0 },
		"minus budget":  func(o *SLO) { o.Budget = -1 },
		"NaN budget":    func(o *SLO) { o.Budget = math.NaN() },
		"budget over 1": func(o *SLO) { o.Budget = 1.01 },
		"zero short":    func(o *SLO) { o.Short = 0 },
		"short > long":  func(o *SLO) { o.Long = 99 },
	} {
		o := ok
		mod(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, o)
		}
	}
}

// TestEvaluateStore: the live-ring fast path must agree with the
// snapshot path, including after the ring wraps, and on a ratio whose two
// series were registered at different ticks.
func TestEvaluateStore(t *testing.T) {
	sa := ringSampler(8, 10)
	var p99, drops, rps float64
	sa.Gauge("p99", func() float64 { return p99 })
	st := sa.Store()
	for i := 1; i <= 20; i++ { // wraps the 8-point ring
		p99, drops, rps = 50, float64(i%4)*40, 1000
		if i >= 18 {
			p99 = 200
		}
		switch i {
		case 5:
			sa.Gauge("drops", func() float64 { return drops })
		case 15: // after the wrap: rps holds fewer ticks than drops
			sa.Gauge("rps", func() float64 { return rps })
		}
		sa.Sample(sim.Time(i * 10))
	}
	o := SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.2, Short: 30, Long: 80}
	now := sim.Time(200)
	live := o.EvaluateStore(st, now)
	snap := o.Evaluate(st.Snapshot(), now)
	if live != snap {
		t.Fatalf("EvaluateStore = %+v, Evaluate = %+v", live, snap)
	}
	if !live.Burning {
		t.Fatalf("expected burning: %+v", live)
	}
	// Missing series through the store path.
	miss := SLO{Name: "x", Series: "absent", Target: 1, Budget: 0.1, Short: 10, Long: 10}
	if r := miss.EvaluateStore(st, now); !r.NoData {
		t.Fatalf("absent series via store: %+v, want NoData", r)
	}
	// Ratios, both ways round: the younger series bounds the stream.
	for _, ratio := range []SLO{
		{Name: "d", Series: "drops", Denom: "rps", Target: 0.05, Budget: 0.5, Short: 30, Long: 80},
		{Name: "r", Series: "rps", Denom: "drops", Target: 0.95, Budget: 0.5, Short: 30, Long: 80},
		{Name: "gone", Series: "drops", Denom: "absent", Target: 0.05, Budget: 0.5, Short: 30, Long: 80},
	} {
		live, snap := ratio.EvaluateStore(st, now), ratio.Evaluate(st.Snapshot(), now)
		if live != snap {
			t.Fatalf("%s: EvaluateStore = %+v, Evaluate = %+v", ratio.Name, live, snap)
		}
	}
	if r := (SLO{Name: "d", Series: "drops", Denom: "rps", Target: 0.05, Budget: 0.5, Short: 30, Long: 80}).EvaluateStore(st, now); r.Samples != 6 || !r.Burning {
		t.Fatalf("ratio via store: %+v, want the 6 ticks rps holds, burning", r)
	}
}

// TestSamplerWindowHistogram: interval percentiles react within one tick
// and decay right after, unlike the cumulative series.
func TestSamplerWindowHistogram(t *testing.T) {
	sa := NewSampler(Config{Period: 10})
	h := metrics.NewHistogram()
	sa.Histogram("lat", h)
	sa.WindowHistogram("lat", h)

	for i := 0; i < 100; i++ {
		h.Record(1000) // 1 µs
	}
	sa.Sample(10)
	for i := 0; i < 10; i++ {
		h.Record(900000) // 900 µs burst
	}
	sa.Sample(20)
	sa.Sample(30) // idle tick

	get := func(name string) []float64 {
		return snapshotOf(sa.Store(), name).V
	}
	winP99 := get("lat_win_p99_us")
	if winP99[0] > 2 || winP99[1] < 800 || winP99[2] != 0 {
		t.Fatalf("lat_win_p99_us = %v, want [~1, ~900, 0]", winP99)
	}
	cumP99 := get("lat_p99_us")
	if cumP99[2] < 800 {
		t.Fatalf("cumulative p99 = %v — burst should dominate it forever (9%% of samples)", cumP99)
	}
	if counts := get("lat_win_count"); counts[0] != 100 || counts[1] != 10 || counts[2] != 0 {
		t.Fatalf("lat_win_count = %v, want [100 10 0]", counts)
	}
}
