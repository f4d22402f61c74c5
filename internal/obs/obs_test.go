package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// Last returns the most recent point, or (0, 0, false) when empty.
func (s *Series) Last() (t int64, v float64, ok bool) {
	if s.Len() == 0 {
		return 0, 0, false
	}
	t, v = s.back(0)
	return t, v, true
}

// ringSampler is a sampler over a store of the given capacity, for tests
// that wrap the ring in a few ticks.
func ringSampler(capacity int, period sim.Time) *Sampler {
	return &Sampler{store: newStore(capacity, period), period: period}
}

// snapshotOf returns the named series of st's snapshot.
func snapshotOf(st *Store, name string) SeriesJSON {
	s, _ := findSeries(st.Snapshot(), name)
	return s
}

func TestSeriesRing(t *testing.T) {
	sa := ringSampler(4, 10)
	var x float64
	sa.Gauge("x", func() float64 { return x })
	for i := 1; i <= 6; i++ {
		x = float64(i)
		sa.Sample(sim.Time(i * 10))
	}
	snap := snapshotOf(sa.Store(), "x")
	if !reflect.DeepEqual(snap.T, []int64{30, 40, 50, 60}) {
		t.Fatalf("ring kept %v, want the newest 4", snap.T)
	}
	if !reflect.DeepEqual(snap.V, []float64{3, 4, 5, 6}) {
		t.Fatalf("ring values %v", snap.V)
	}
	if ts, v, ok := sa.Store().Get("x").Last(); !ok || ts != 60 || v != 6 {
		t.Fatalf("Last() = %d,%v,%v", ts, v, ok)
	}
}

func TestStoreSnapshotSorted(t *testing.T) {
	sa := ringSampler(8, 10)
	sa.Gauge("zeta", func() float64 { return 1 })
	sa.Gauge("alpha", func() float64 { return 2 })
	sa.Sample(1)
	st := sa.Store()
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
	h := metrics.NewHistogram()
	sa.Gauge("queue_depth", func() float64 { return depth })
	sa.Rate("rps", func() float64 { return done })
	sa.Histogram("latency", h)
	sa.Attach(eng)

	eng.CallAt(5, func(any, uint64) { depth = 3; done = 100; h.Record(2000) }, nil, 0)
	eng.CallAt(15, func(any, uint64) { depth = 1; done = 250 }, nil, 0)
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
// idle (gauges, rates, cumulative and windowed histograms).
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
// on every tick, busy and idle.
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

	// Hosts that record every series on one clock merge onto one union
	// of their timestamps, shared by every merged series.
	var snaps [][]SeriesJSON
	for h := range 2 {
		sa := ringSampler(4, 10)
		sa.Gauge("a", func() float64 { return 1 })
		sa.Gauge("b", func() float64 { return 2 })
		for k := range 5 {
			sa.Sample(sim.Time(10 * (k + h)))
		}
		snaps = append(snaps, sa.Store().Snapshot())
	}
	m = MergeSeries(snaps...)
	if !reflect.DeepEqual(m[0].T, []int64{10, 20, 30, 40, 50}) || &m[0].T[0] != &m[1].T[0] {
		t.Fatalf("one-clock merge: a.T = %v, b.T = %v, want one shared union", m[0].T, m[1].T)
	}
	if !reflect.DeepEqual(m[1].V, []float64{2, 4, 4, 4, 2}) {
		t.Fatalf("one-clock merge: b = %v", m[1].V)
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
// repeated timestamps, hosts whose series share one clock (the same array
// or equal copies), and (rarely) an unsorted recording. Values are
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
			// Half the hosts record every series on one clock, as a
			// store snapshot does: one T array shared, or an equal copy.
			var clock []int64
			oneClock := r.IntN(2) == 0
			for _, name := range names {
				if r.IntN(8) == 0 {
					continue // this host lacks the series
				}
				s := SeriesJSON{Name: name, T: []int64{}, V: []float64{}}
				if oneClock && clock != nil {
					s.T = clock
					if r.IntN(2) == 0 {
						s.T = slices.Clone(clock)
					}
					for range s.T {
						s.V = append(s.V, r.Float64()*1e3/3)
					}
					hosts[hi] = append(hosts[hi], s)
					continue
				}
				for k, n := int64(r.IntN(3)), int64(r.IntN(30)); k < n; k++ {
					if r.IntN(10) == 0 {
						continue // dropped tick
					}
					for rep := 1 + r.IntN(12)/11; rep > 0; rep-- {
						s.T = append(s.T, phase+k*period)
						s.V = append(s.V, r.Float64()*1e3/3)
					}
				}
				if oneClock {
					clock = s.T
				} else if r.IntN(20) == 0 {
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
	// 10 samples, 1 per 10 ns; last 3 are bad (>100), the rest sit below
	// the target. One more, at 75, sits at the target, which is within it.
	// Budget 0.2.
	var snap []SeriesJSON
	s := SeriesJSON{Name: "p99"}
	for i := 1; i <= 10; i++ {
		s.T = append(s.T, int64(i*10))
		v := 50.0
		if i >= 8 {
			v = 200
		}
		s.V = append(s.V, v)
		if i == 7 {
			s.T, s.V = append(s.T, 75), append(s.V, 100)
		}
	}
	snap = append(snap, s)
	o := SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.2, Short: 30, Long: 100}
	r := o.Evaluate(snap, 100)
	// Short window [70,100]: samples 70, 75, 80, 90, 100 → 3 bad of 5 → 0.6/0.2 = 3.
	if !approx(r.ShortBurn, 3) {
		t.Fatalf("short burn = %v, want 3", r.ShortBurn)
	}
	// Long window: 3 bad of 11 → (3/11)/0.2.
	if !approx(r.LongBurn, 3.0/11/0.2) || !r.Burning {
		t.Fatalf("long burn = %v burning=%v, want %v true", r.LongBurn, r.Burning, 3.0/11/0.2)
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

// ringOracle is the store layout the one clock replaced: each series a
// ring of its own (t, v) points, appended one at a time. It holds the
// clock store to its exact snapshots and burn rates.
type ringOracle struct {
	name  string
	t     []int64
	v     []float64
	start int // index of the oldest point
	n     int // points held
}

func (o *ringOracle) Append(t sim.Time, v float64) {
	i := o.start + o.n
	if i >= len(o.t) {
		i -= len(o.t)
	}
	o.t[i], o.v[i] = int64(t), v
	if o.n < len(o.t) {
		o.n++
	} else if o.start++; o.start == len(o.t) {
		o.start = 0
	}
}

func (o *ringOracle) Len() int { return o.n }

func (o *ringOracle) at(i int) (int64, float64) {
	j := o.start + i
	if j >= len(o.t) {
		j -= len(o.t)
	}
	return o.t[j], o.v[j]
}

func (o *ringOracle) back(k int) (int64, float64) { return o.at(o.n - 1 - k) }

func (o *ringOracle) snapshot() SeriesJSON {
	out := SeriesJSON{Name: o.name, T: make([]int64, o.n), V: make([]float64, o.n)}
	for i := range o.n {
		out.T[i], out.V[i] = o.at(i)
	}
	return out
}

// grow re-lays the oracle on a ring of n slots holding the same points,
// as Store.Keep does; a ring no longer than it holds stays as it is.
func (o *ringOracle) grow(n int) {
	if n <= len(o.t) {
		return
	}
	g := &ringOracle{name: o.name, t: make([]int64, n), v: make([]float64, n)}
	for i := range o.n {
		t, v := o.at(i)
		g.Append(sim.Time(t), v)
	}
	*o = *g
}

// TestClockStoreMatchesPerSeriesRings: over seeded random runs, the one
// clock store's snapshot and burn rates equal those of per-series (t, v)
// rings fed the same points. Series register before the first tick, mid
// run and after the ring wraps; ticks land off the period grid, as the
// ledger's probe calls Sample(at). At a random tick a Keep grows the
// store — before the ring wraps, after it, or, declaring a window the
// store already holds, not at all — and the oracles grow to the new
// capacity holding the same points. Every snapshot's T slices end on one
// shared array.
func TestClockStoreMatchesPerSeriesRings(t *testing.T) {
	const period = 10
	for seed := uint64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewPCG(seed, 0xc10c))
		capacity := 1 + r.IntN(12)
		ticks := 1 + r.IntN(8*capacity)
		sa := ringSampler(capacity, period)
		cur := map[string]float64{}
		var oracles []*ringOracle
		register := func() {
			name := fmt.Sprintf("s%02d", len(oracles))
			sa.Gauge(name, func() float64 { return cur[name] })
			oracles = append(oracles, &ringOracle{name: name, t: make([]int64, capacity), v: make([]float64, capacity)})
		}
		check := func(k int, at sim.Time) {
			want := make([]SeriesJSON, len(oracles))
			for i, o := range oracles {
				want[i] = o.snapshot()
			}
			got := sa.Store().Snapshot()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d tick %d: snapshot\n got %v\nwant %v", seed, k, got, want)
			}
			var end *int64
			for _, s := range got {
				if n := len(s.T); n > 0 {
					if end == nil {
						end = &s.T[n-1]
					} else if &s.T[n-1] != end {
						t.Fatalf("seed %d tick %d: %s's T is not a suffix of the one clock copy", seed, k, s.Name)
					}
				}
			}
			for _, o := range oracles {
				live := sa.Store().Get(o.name)
				for _, w := range []sim.Time{1, 10, 40, 200} {
					now := int64(at) - r.Int64N(3)
					gb, gn := burn(live, now, w, 30, 0.25)
					wb, wn := burn(o, now, w, 30, 0.25)
					if gb != wb || gn != wn {
						t.Fatalf("seed %d tick %d: %s burn over %d = %v/%d, want %v/%d", seed, k, o.name, w, gb, gn, wb, wn)
					}
				}
			}
		}
		register() // before the first tick
		mid, wrapped := r.IntN(ticks), capacity+r.IntN(capacity)
		// The Keep's tick and the ring it asks for: before the wrap, after
		// it, or a window of fewer ticks than the store holds.
		keepAt, keepTicks := r.IntN(capacity), capacity+1+r.IntN(2*capacity)
		switch seed % 3 {
		case 1:
			keepAt = capacity + r.IntN(2*capacity)
		case 2:
			keepTicks = 1 + r.IntN(capacity)
		}
		at := sim.Time(r.Int64N(1000))
		for k := 0; k < ticks; k++ {
			if k == keepAt {
				// ⌊window/period⌋ + 1 = keepTicks, wherever in its last
				// period the window ends.
				if err := sa.Store().Keep(sim.Time(keepTicks-1)*period + sim.Time(r.Int64N(period))); err != nil {
					t.Fatalf("seed %d: Keep: %v", seed, err)
				}
				capacity = max(capacity, keepTicks)
				for _, o := range oracles {
					o.grow(capacity)
				}
				check(k, at)
			}
			if k == mid || k == wrapped || r.IntN(8) == 0 {
				register()
			}
			at += 1 + sim.Time(r.Int64N(25))
			for _, o := range oracles {
				cur[o.name] = float64(r.IntN(200)) / 3
				o.Append(at, cur[o.name])
			}
			sa.Sample(at)
			check(k, at)
		}
	}
}

// TestKeepRefusesAWindowPastTheCeiling: a window of more than 2^16 ticks
// is refused and grows nothing, whatever its length, and a window of
// exactly 2^16 ticks is kept.
func TestKeepRefusesAWindowPastTheCeiling(t *testing.T) {
	const period = 100 * sim.Microsecond
	st := ringSampler(ViewTicks, period).Store()
	for _, w := range []sim.Time{maxKeepTicks * period, 1 << 62, math.MaxInt64} {
		if err := st.Keep(w); err == nil {
			t.Fatalf("Keep(%d) at a %d ns period: no error", w, period)
		}
		if len(st.clock) != ViewTicks {
			t.Fatalf("a refused Keep(%d) grew the store to %d ticks", w, len(st.clock))
		}
	}
	if err := st.Keep(maxKeepTicks*period - 1); err != nil || len(st.clock) != maxKeepTicks {
		t.Fatalf("Keep of %d ticks: %v, store holds %d", maxKeepTicks, err, len(st.clock))
	}
}

// TestTornSeriesReadAsTheirPairedPoints: a series whose T and V lengths
// differ — a torn recording, or a peer's bad snapshot — merges, evaluates
// and reports as its paired prefix, sorted or not, instead of indexing
// past the shorter array.
func TestTornSeriesReadAsTheirPairedPoints(t *testing.T) {
	torn := []SeriesJSON{
		{Name: "p99", T: []int64{10, 20, 30}, V: []float64{500}},
		{Name: "rps", T: []int64{30, 10}, V: []float64{9, 7, 5, 3}},
		{Name: "drops", T: []int64{10}, V: []float64{1, 2, 3}},
	}
	merged := MergeSeries(torn, []SeriesJSON{{Name: "p99", T: []int64{20}, V: []float64{100}}})
	want := []SeriesJSON{
		{Name: "drops", T: []int64{10}, V: []float64{1}},
		{Name: "p99", T: []int64{10, 20}, V: []float64{500, 100}},
		{Name: "rps", T: []int64{10, 30}, V: []float64{7, 9}},
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merge of torn series = %v, want %v", merged, want)
	}
	for _, c := range []struct {
		o       SLO
		burning bool
	}{
		{SLO{Name: "plain", Series: "p99", Target: 100, Budget: 0.5, Short: 30, Long: 30}, true},
		{SLO{Name: "ratio", Series: "p99", Denom: "drops", Target: 0.5, Budget: 0.5, Short: 30, Long: 30}, true},
		{SLO{Name: "under", Series: "drops", Denom: "p99", Target: 0.5, Budget: 0.5, Short: 30, Long: 30}, false},
	} {
		if r := c.o.Evaluate(torn, 30); r.Samples != 1 || r.Burning != c.burning {
			t.Errorf("%s over torn series = %+v, want one paired sample, burning %v", c.o.Name, r, c.burning)
		}
	}
	if v, ok := torn[0].LastBefore(30); !ok || v != 500 {
		t.Errorf("LastBefore over a torn series = %v, %v, want its one paired point", v, ok)
	}
}
