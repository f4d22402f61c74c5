package obs

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// Last returns the most recent point, or (0, 0, false) when empty.
func (s *Series) Last() (t int64, v float64, ok bool) {
	if s.n == 0 {
		return 0, 0, false
	}
	t, v = s.at(s.n - 1)
	return t, v, true
}

func TestSeriesRing(t *testing.T) {
	s := newSeries("x", 4)
	for i := 1; i <= 6; i++ {
		s.Append(sim.Time(i*10), float64(i))
	}
	snap := s.Snapshot()
	if !reflect.DeepEqual(snap.T, []int64{30, 40, 50, 60}) {
		t.Fatalf("ring kept %v, want the newest 4", snap.T)
	}
	if !reflect.DeepEqual(snap.V, []float64{3, 4, 5, 6}) {
		t.Fatalf("ring values %v", snap.V)
	}
	if ts, v, ok := s.Last(); !ok || ts != 60 || v != 6 {
		t.Fatalf("Last() = %d,%v,%v", ts, v, ok)
	}
}

func TestStoreSnapshotSorted(t *testing.T) {
	st := NewStore(8)
	st.Series("zeta").Append(1, 1)
	st.Series("alpha").Append(1, 2)
	snap := st.Snapshot()
	if len(snap) != 2 || snap[0].Name != "alpha" || snap[1].Name != "zeta" {
		t.Fatalf("snapshot not name-sorted: %+v", snap)
	}
	if st.Get("alpha") == nil || st.Get("missing") != nil {
		t.Fatalf("Get semantics wrong")
	}
}

// TestSamplerEndToEnd drives a sampler from a real engine: gauge, rate,
// histogram and counter-delta series all land on period boundaries.
func TestSamplerEndToEnd(t *testing.T) {
	eng := sim.New(7)
	sa := NewSampler(Config{Period: 10})
	var depth float64
	var done float64
	var runs uint64
	h := metrics.NewHistogram()
	sa.Gauge("queue_depth", func() float64 { return depth })
	sa.Rate("rps", func() float64 { return done })
	sa.Histogram("latency", h)
	sa.Counters(func() []metrics.CounterValue { return []metrics.CounterValue{{Name: "runs", Value: runs}} })
	sa.Attach(eng)
	if got := sa.Histograms(); len(got) != 1 || got["latency"] != h {
		t.Fatalf("Histograms() = %v, want the one registered", got)
	}

	eng.CallAt(5, func(any, uint64) { depth = 3; done = 100; runs = 4; h.Record(2000) }, nil, 0)
	eng.CallAt(15, func(any, uint64) { depth = 1; done = 250; runs = 9 }, nil, 0)
	eng.RunUntil(30)

	snap := sa.Store().Snapshot()
	byName := map[string]SeriesJSON{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	qd := byName["queue_depth"]
	if !reflect.DeepEqual(qd.T, []int64{10, 20, 30}) || !reflect.DeepEqual(qd.V, []float64{3, 1, 1}) {
		t.Fatalf("queue_depth = %v %v", qd.T, qd.V)
	}
	// Rate: period 10 ns → perSec factor 1e8. Deltas 100, 150, 0.
	rps := byName["rps"]
	if !reflect.DeepEqual(rps.V, []float64{100e8, 150e8, 0}) {
		t.Fatalf("rps = %v", rps.V)
	}
	if got := byName["latency_count"].V; !reflect.DeepEqual(got, []float64{1, 1, 1}) {
		t.Fatalf("latency_count = %v", got)
	}
	if got := byName["latency_p99_us"].V[0]; got != 2 { // 2000 ns = 2 µs
		t.Fatalf("latency_p99_us = %v", got)
	}
	// Counter folding: per-tick increments of exactly this source.
	if got := byName["runs_delta"].V; !reflect.DeepEqual(got, []float64{4, 5, 0}) {
		t.Fatalf("runs_delta = %v", got)
	}
}

// tickLoad records one tick's traffic the way the ledger's obs.sample
// probe does: 16 samples spread over four octaves (10µs..160µs).
func tickLoad(h *metrics.Histogram, r *rand.Rand) {
	for i := 0; i < 16; i++ {
		h.Record(10_000 + r.Int64N(150_000))
	}
}

// probeSampler registers what a fleet host does (harness.go): gauges, a
// rate, and per class a cumulative plus a windowed latency histogram.
func probeSampler(hists ...*metrics.Histogram) *Sampler {
	sa := NewSampler(Config{Period: 10})
	var x float64
	sa.Gauge("g", func() float64 { return x })
	sa.Rate("r", func() float64 { return x })
	for i, h := range hists {
		name := "latency_" + string(rune('a'+i))
		sa.Histogram(name, h)
		sa.WindowHistogram(name, h)
	}
	return sa
}

// TestZeroAllocSample: a warmed sampler tick is allocation-free, busy or
// idle (gauges, rates, cumulative and windowed histograms; counter
// folding allocates by design and is opt-in for the standalone daemon).
func TestZeroAllocSample(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	h := metrics.NewHistogram()
	sa := probeSampler(h)
	at := sim.Time(0)
	sa.Sample(at)
	allocs := testing.AllocsPerRun(100, func() {
		tickLoad(h, r)
		at += 10
		sa.Sample(at)
		at += 10
		sa.Sample(at) // idle tick: cached percentiles, empty window
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %.1f/run, want 0", allocs)
	}
}

// TestSamplerHistogramMatchesSummarize: the sampler's single-pass,
// count-gated histogram read records exactly what a fresh Summarize would
// on every tick — busy, idle, and across a Reset that refills the
// histogram to the very count it held before.
func TestSamplerHistogramMatchesSummarize(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	h := metrics.NewHistogram()
	sa := probeSampler(h)
	at := sim.Time(0)
	check := func(what string) {
		t.Helper()
		at += 10
		sa.Sample(at)
		sum := h.Summarize()
		for name, want := range map[string]float64{
			"latency_a_count":   float64(sum.Count),
			"latency_a_p50_us":  float64(sum.P50) / 1e3,
			"latency_a_p99_us":  float64(sum.P99) / 1e3,
			"latency_a_p999_us": float64(sum.P999) / 1e3,
		} {
			if ts, got, _ := sa.Store().Get(name).Last(); ts != int64(at) || got != want {
				t.Fatalf("%s: %s = %v @%d, want %v @%d", what, name, got, ts, want, at)
			}
		}
	}
	check("empty")
	for i := 0; i < 50; i++ {
		tickLoad(h, r)
		check("busy")
		if i%3 == 0 {
			check("idle")
		}
	}
	n := h.Count()
	h.Reset()
	for i := uint64(0); i < n; i++ {
		h.Record(700)
	}
	check("reset and refilled to the same count")
}

// BenchmarkSamplerSample mirrors the ledger's obs.sample probe: a fleet
// host's registrations over two warm class histograms, 16 records per
// tick over a 4-octave span. The idle shape is a tick without traffic.
func BenchmarkSamplerSample(b *testing.B) {
	for _, idle := range []bool{false, true} {
		name := "busy"
		if idle {
			name = "idle"
		}
		b.Run(name, func(b *testing.B) {
			r := rand.New(rand.NewPCG(1, 2))
			hs := []*metrics.Histogram{metrics.NewHistogram(), metrics.NewHistogram()}
			for i := 0; i < 1<<12; i++ {
				tickLoad(hs[i%2], r)
			}
			sa := probeSampler(hs...)
			at := sim.Time(0)
			sa.Sample(at)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !idle {
					tickLoad(hs[i%2], r)
				}
				at += 10
				sa.Sample(at)
			}
		})
	}
}

func TestMergeSeries(t *testing.T) {
	h1 := []SeriesJSON{
		{Name: "rps", T: []int64{10, 20}, V: []float64{100, 200}},
		{Name: "latency_p99_us", T: []int64{10, 20}, V: []float64{50, 80}},
	}
	h2 := []SeriesJSON{
		{Name: "rps", T: []int64{10, 20, 30}, V: []float64{40, 60, 70}},
		{Name: "latency_p99_us", T: []int64{10, 20}, V: []float64{90, 30}},
	}
	m := MergeSeries(h1, h2)
	byName := map[string]SeriesJSON{}
	for _, s := range m {
		byName[s.Name] = s
	}
	rps := byName["rps"]
	if !reflect.DeepEqual(rps.T, []int64{10, 20, 30}) || !reflect.DeepEqual(rps.V, []float64{140, 260, 70}) {
		t.Fatalf("additive merge = %v %v", rps.T, rps.V)
	}
	p99 := byName["latency_p99_us"]
	if !reflect.DeepEqual(p99.V, []float64{90, 80}) {
		t.Fatalf("percentile merge should take max: %v", p99.V)
	}
}

// mergeSeriesByMap is the map-and-resort merge MergeSeries shipped before
// it became a k-way merge; the randomized test holds the new code to its
// exact output.
func mergeSeriesByMap(hosts ...[]SeriesJSON) []SeriesJSON {
	type acc struct {
		byT  map[int64]float64
		pctl bool
	}
	merged := map[string]*acc{}
	var names []string
	for _, snap := range hosts {
		for _, s := range snap {
			a := merged[s.Name]
			if a == nil {
				a = &acc{byT: map[int64]float64{}, pctl: percentileSeries(s.Name)}
				merged[s.Name] = a
				names = append(names, s.Name)
			}
			for i, t := range s.T {
				v := s.V[i]
				if old, ok := a.byT[t]; ok {
					if a.pctl {
						if v > old {
							a.byT[t] = v
						}
					} else {
						a.byT[t] = old + v
					}
				} else {
					a.byT[t] = v
				}
			}
		}
	}
	sort.Strings(names)
	out := make([]SeriesJSON, 0, len(names))
	for _, name := range names {
		a := merged[name]
		ts := make([]int64, 0, len(a.byT))
		for t := range a.byT {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		s := SeriesJSON{Name: name, T: ts, V: make([]float64, len(ts))}
		for i, t := range ts {
			s.V[i] = a.byT[t]
		}
		out = append(out, s)
	}
	return out
}

// TestMergeSeriesMatchesMapMerge: byte-identical JSON against the map
// merge over randomized fleets — aligned clocks, hosts that started late
// or dropped ticks, misaligned periods, empty and missing series,
// repeated timestamps, and (rarely) an unsorted recording. Values are
// awkward fractions so any change in summation order shows.
func TestMergeSeriesMatchesMapMerge(t *testing.T) {
	names := []string{"rps", "drop_rate", "latency_LS_p99_us", "latency_LS_win_p50_us", "nic_inflight"}
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0xfeed))
		hosts := make([][]SeriesJSON, 1+r.IntN(5))
		for hi := range hosts {
			period, phase := int64(100), int64(0)
			if r.IntN(4) == 0 {
				period, phase = 100+int64(r.IntN(3))*50, int64(r.IntN(100))
			}
			for _, name := range names {
				if r.IntN(8) == 0 {
					continue // this host lacks the series
				}
				s := SeriesJSON{Name: name, T: []int64{}, V: []float64{}}
				for k, n := int64(r.IntN(3)), int64(r.IntN(30)); k < n; k++ {
					if r.IntN(10) == 0 {
						continue // dropped tick
					}
					for rep := 1 + r.IntN(12)/11; rep > 0; rep-- {
						s.T = append(s.T, phase+k*period)
						s.V = append(s.V, r.Float64()*1e3/3)
					}
				}
				if r.IntN(20) == 0 {
					r.Shuffle(len(s.T), func(i, j int) {
						s.T[i], s.T[j] = s.T[j], s.T[i]
						s.V[i], s.V[j] = s.V[j], s.V[i]
					})
				}
				hosts[hi] = append(hosts[hi], s)
			}
		}
		want, err := json.Marshal(mergeSeriesByMap(hosts...))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(MergeSeries(hosts...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: k-way merge differs from the map merge\n got %s\nwant %s", seed, got, want)
		}
	}
}

func approx(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

func TestSLOBurnRate(t *testing.T) {
	// 10 samples, 1 per 10 ns; last 3 are bad (>100). Budget 0.2.
	var snap []SeriesJSON
	s := SeriesJSON{Name: "p99"}
	for i := 1; i <= 10; i++ {
		s.T = append(s.T, int64(i*10))
		v := 50.0
		if i >= 8 {
			v = 200
		}
		s.V = append(s.V, v)
	}
	snap = append(snap, s)
	o := SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.2, Short: 30, Long: 100}
	r := o.Evaluate(snap, 100)
	// Short window [70,100]: samples 70..100 → i=7..10 → 3 bad of 4 → 0.75/0.2 = 3.75.
	if r.ShortBurn != 3.75 {
		t.Fatalf("short burn = %v, want 3.75", r.ShortBurn)
	}
	// Long window: 3 bad of 10 → 0.3/0.2 = 1.5.
	if !approx(r.LongBurn, 1.5) || !r.Burning {
		t.Fatalf("long burn = %v burning=%v, want 1.5 true", r.LongBurn, r.Burning)
	}
	// A tighter budget is already burning; a generous one is not.
	o.Budget = 0.5
	if r = o.Evaluate(snap, 100); r.Burning {
		t.Fatalf("budget 0.5 should not burn (long=%v)", r.LongBurn)
	}
	// Empty window: no evidence, no burn.
	if r = o.Evaluate(nil, 100); r.Burning || r.Samples != 0 {
		t.Fatalf("missing series must not burn: %+v", r)
	}
}

func TestSLORatioDenom(t *testing.T) {
	snap := []SeriesJSON{
		{Name: "drop_rate", T: []int64{10, 20, 30}, V: []float64{0, 50, 100}},
		{Name: "rps", T: []int64{10, 20, 30}, V: []float64{1000, 950, 900}},
	}
	// Drop fraction per tick: 0, .05, .1. Target .02 → 2 bad of 3.
	o := SLO{Name: "drops", Series: "drop_rate", Denom: "rps", Target: 0.02, Budget: 0.5, Short: 30, Long: 30}
	r := o.Evaluate(snap, 30)
	want := (2.0 / 3.0) / 0.5
	if !approx(r.LongBurn, want) || !r.Burning {
		t.Fatalf("ratio burn = %v burning=%v, want %v true", r.LongBurn, r.Burning, want)
	}
}

// TestPromText: the exposition is exactly what it is handed — the
// counters in their given order, the histograms by name, the store's
// latest points — and nothing ambient.
func TestPromText(t *testing.T) {
	st := NewStore(8)
	st.Series("queue_depth").Append(2*sim.Millisecond, 5)
	h := metrics.NewHistogram()
	h.Record(1000)
	text := PromText(
		[]metrics.CounterValue{{Name: "a_runs", Value: 7}, {Name: "b_faults", Value: 0}},
		map[string]*metrics.Histogram{"latency": h},
		st, 3*sim.Millisecond)
	want := `# TYPE syrup_a_runs counter
syrup_a_runs 7 3
# TYPE syrup_b_faults counter
syrup_b_faults 0 3
# TYPE syrup_latency summary
syrup_latency_count 1 3
syrup_latency{quantile="0.5"} 1 3
syrup_latency{quantile="0.99"} 1 3
syrup_latency{quantile="0.999"} 1 3
# TYPE syrup_queue_depth gauge
syrup_queue_depth 5 2
`
	if text != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", text, want)
	}
	if got := PromText(nil, nil, nil, 0); got != "" {
		t.Fatalf("empty host exposes %q", got)
	}
}
