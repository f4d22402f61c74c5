package experiments

import (
	"strings"
	"testing"

	"syrup/internal/sim"
)

// Tiny windows: these tests exercise the figure drivers end to end
// (config plumbing, series/column structure, formatting), not the shapes —
// shape_test.go owns those.
var tinyWindows = Windows{
	Warmup:  10 * sim.Millisecond,
	Measure: 40 * sim.Millisecond,
	Drain:   20 * sim.Millisecond,
}

func checkResult(t *testing.T, r *Result, series int, cols ...string) {
	t.Helper()
	if len(r.Series) != series {
		t.Fatalf("%s: %d series, want %d", r.Name, len(r.Series), series)
	}
	for _, s := range r.Series {
		if len(s.Rows) == 0 {
			t.Fatalf("%s/%s: no rows", r.Name, s.Name)
		}
		for _, row := range s.Rows {
			for _, c := range cols {
				if _, ok := row.Cols[c]; !ok {
					t.Fatalf("%s/%s@%v: missing column %q", r.Name, s.Name, row.X, c)
				}
			}
		}
	}
	out := r.Format()
	if !strings.Contains(out, r.Name) || !strings.Contains(out, r.Series[0].Name) {
		t.Fatalf("%s: format incomplete:\n%s", r.Name, out)
	}
}

func TestFig2Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	r := Fig2(Fig2Config{Loads: []float64{100_000}, Seeds: 1, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r, 2, "p99_us", "p99_stdev_us", "drop_pct")
}

func TestFig6Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	r := Fig6(Fig6Config{Loads: []float64{100_000}, Seeds: 1, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r, 4, "p99_us", "drop_pct")
}

func TestFig7Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	r := Fig7(Fig7Config{LSLoads: []float64{200_000}, TotalLoad: 400_000, TokenRate: 350_000, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r, 2, "be_tput_rps", "ls_p99_us", "ls_drop_pct", "be_drop_pct")
}

func TestFig8Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	r := Fig8(Fig8Config{Loads: []float64{4_000}, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r, 3, "get_p99_us", "scan_p99_us")
}

func TestFig9Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	r := Fig9(Fig9Config{Loads: []float64{1_000_000}, GetFrac: 0.5, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r, 3, "p999_us", "p99_us", "drop_pct")
	// Panel title switches with the mix.
	rb := Fig9(Fig9Config{Loads: []float64{1_000_000}, GetFrac: 0.95, Run: RunConfig{Windows: tinyWindows}})
	if !strings.Contains(rb.Title, "panel b") {
		t.Fatalf("panel b title: %q", rb.Title)
	}
}

func TestAblationDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	r := AblationLateBinding(AblationLateBindingConfig{Loads: []float64{100_000}, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r, 3, "p99_us", "drop_pct")
	r2 := AblationRFS(AblationRFSConfig{Loads: []float64{100_000}, Bonus: 0.3, Flows: 12, Run: RunConfig{Windows: tinyWindows}})
	checkResult(t, r2, 2, "mean_us", "p99_us", "locality_pct")
}

// Determinism across the whole stack: identical configs produce identical
// results, bit for bit.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("driver test")
	}
	run := func() string {
		return Fig6(Fig6Config{Loads: []float64{150_000}, Seeds: 1, Run: RunConfig{Windows: tinyWindows}}).Format()
	}
	if run() != run() {
		t.Fatal("identical experiment configs produced different results")
	}
}

func TestDefaultConfigsAreSane(t *testing.T) {
	if len(DefaultFig2().Loads) < 5 || DefaultFig2().Seeds < 2 {
		t.Fatal("fig2 defaults degenerate")
	}
	if len(DefaultFig6().Loads) < 5 {
		t.Fatal("fig6 defaults degenerate")
	}
	if DefaultFig7().TokenRate != 350_000 || DefaultFig7().TotalLoad != 400_000 {
		t.Fatal("fig7 defaults diverge from the paper")
	}
	if len(DefaultFig8().Loads) < 5 {
		t.Fatal("fig8 defaults degenerate")
	}
	if DefaultFig9a().GetFrac != 0.5 || DefaultFig9b().GetFrac != 0.95 {
		t.Fatal("fig9 mixes diverge from the paper")
	}
	if DefaultAblationRFS().Bonus <= 0 || DefaultAblationLateBinding().Loads == nil {
		t.Fatal("ablation defaults degenerate")
	}
}
