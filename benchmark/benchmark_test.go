package main

import (
	"math"
	"regexp"
	"sort"
	"testing"

	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// tinyPlan runs a workload at windows small enough for tier-1: the point
// is that every world builds, runs, passes the correctness gate and emits
// the declared metrics, not that the numbers mean anything.
func tinyPlan(traced bool) plan {
	return plan{
		win:    windows{Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond, Drain: 5 * sim.Millisecond},
		passes: 3, traced: traced, probeReps: 2, probeOps: 1 << 10,
	}
}

func TestWorkloadsEmitTheManifest(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if mf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the pass counts are sized for %d", mf.RunSeconds, runSeconds)
	}
	if len(mf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(mf.Workloads), len(specs))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := func(ms []manifestMetric) []string {
		var out []string
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q unit %q outside the contract's alphabet", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	want := map[bool][]string{false: names(mf.EndToEnd), true: names(mf.PerLayer)}
	for i, sp := range specs {
		if mf.Workloads[i].Name != sp.name || !nameRE.MatchString(sp.name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, mf.Workloads[i].Name, sp.name)
		}
		// The burst that provokes the controller does not fit tiny windows.
		tiny := *sp
		tiny.minDecisions = 0
		// A traced run does everything an untraced one does before it turns
		// to the layers; one untraced run checks the end-to-end names.
		modes := []bool{true}
		if i == 0 {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			rep, err := runWorkload(&tiny, 7, tinyPlan(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", sp.name, rep.attempted, rep.failed)
			}
			var got []string
			for _, m := range rep.metrics {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s = %v", sp.name, m.name, m.value)
				}
				got = append(got, m.name+" "+m.unit)
			}
			sort.Strings(got)
			if len(got) != len(want[traced]) {
				t.Fatalf("%s traced=%v: %d metrics, BENCHMARK.json declares %d\n got %v\nwant %v", sp.name, traced, len(got), len(want[traced]), got, want[traced])
			}
			for j := range got {
				if got[j] != want[traced][j] {
					t.Errorf("%s traced=%v: emits %q where BENCHMARK.json declares %q", sp.name, traced, got[j], want[traced][j])
				}
			}
		}
	}
}

func TestSeedChangesTheSimulation(t *testing.T) {
	sp := findSpec("rocksdb_get_rr")
	a, err := runWorkload(sp, 1, tinyPlan(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(sp, 2, tinyPlan(false))
	if err != nil {
		t.Fatal(err)
	}
	again, err := runWorkload(sp, 1, tinyPlan(false))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == b.digest {
		t.Error("seeds 1 and 2 simulated the same thing")
	}
	if a.digest != again.digest {
		t.Error("seed 1 did not repeat")
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100 with children 10..30 and 20..50 (overlapping) and
	// 60..70; the second child has a grandchild 25..45.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "b1", Start: 25, End: 45, Parent: 2},
	}
	selfTimes(spans)
	for i, want := range []int64{100 - 40 - 10, 20, 30 - 20, 10, 20} {
		if spans[i].Self != want {
			t.Errorf("%s: self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.open != -1 {
		t.Errorf("nesting lost: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("ignored")) // a nil tracer records nothing
}

func TestStatsHelpers(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	if minOf(v) != 1 || median(v) != 5.5 {
		t.Errorf("min %v median %v", minOf(v), median(v))
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	// Each stretch at its fastest: 1 + 2 + 1, below either whole repetition.
	if f, err := floorSum([][]float64{{1, 5, 1}, {3, 2, 4}}); err != nil || f != 4 {
		t.Errorf("floorSum = %v, %v, want 4", f, err)
	}
	if _, err := floorSum([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("floorSum accepted repetitions of different lengths")
	}
	if k := passesFor(&spec{passes: 10}, runSeconds); k != 10 {
		t.Errorf("passesFor(run_seconds) = %d", k)
	}
	if k := passesFor(&spec{passes: 10}, 1); k != 3 {
		t.Errorf("passesFor(1) = %d, want the floor of 3", k)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	h := metrics.NewHistogram()
	var all []float64
	var rnd lcg = 9
	for i := 0; i < 50_000; i++ {
		v := int64(20_000 + rnd.next()%40_000)
		h.Record(v)
		all = append(all, float64(v))
	}
	sort.Float64s(all)
	for _, p := range []float64{1, 50, 99, 99.9} {
		exact := all[int(math.Ceil(p/100*float64(len(all))))-1]
		got := percentile(h, p)
		// A bucket is 1/64 of an octave wide; interpolation must land well
		// inside one and never below the bucket edge Percentile reports.
		if math.Abs(got-exact)/exact > 0.004 || got < float64(h.Percentile(p)) {
			t.Errorf("p%v = %.1f, exact %.1f, bucket edge %d", p, got, exact, h.Percentile(p))
		}
	}
	if percentile(metrics.NewHistogram(), 50) != 0 {
		t.Error("empty histogram")
	}
}
