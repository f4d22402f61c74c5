package syrup_test

// One benchmark per table and figure in the paper's evaluation (§5). Each
// benchmark regenerates its experiment on the simulated host and prints
// the same rows/series the paper plots; the key scalar (a reference tail
// latency or crossover load) is also reported as a benchmark metric so
// regressions show up in numeric output.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// A full pass simulates tens of millions of requests; expect a few
// minutes. The syrup-bench command exposes the same experiments with
// adjustable fidelity.

import (
	"fmt"
	"sync"
	"testing"

	"syrup/internal/experiments"
)

// printOnce avoids duplicating the tables when the benchmark harness
// re-runs a function to settle timing.
var printOnce sync.Map

func printResult(name, formatted string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Println(formatted)
	}
}

// benchPoints trims load grids so the full suite stays in CI-friendly
// territory while covering each figure's knees.
const benchPoints = 6

func trim(loads []float64, n int) []float64 {
	if n >= len(loads) {
		return loads
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = loads[i*(len(loads)-1)/(n-1)]
	}
	return out
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig2()
		cfg.Loads = trim(cfg.Loads, benchPoints)
		cfg.Seeds = 3
		res := experiments.Fig2(cfg)
		printResult("fig2", res.Format())
		// Headline: round robin's p99 at 400K RPS stays low while vanilla
		// has collapsed (the paper's 80%-more-load claim).
		b.ReportMetric(col(res, "Round Robin", 400000, "p99_us"), "rr_p99us@400K")
		b.ReportMetric(col(res, "Vanilla Linux", 400000, "p99_us"), "vanilla_p99us@400K")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig6()
		cfg.Loads = trim(cfg.Loads, benchPoints)
		cfg.Seeds = 2
		res := experiments.Fig6(cfg)
		printResult("fig6", res.Format())
		b.ReportMetric(col(res, "SCAN Avoid", 160000, "p99_us"), "scanavoid_p99us@160K")
		b.ReportMetric(col(res, "SITA", 320000, "p99_us"), "sita_p99us@320K")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig7()
		res := experiments.Fig7(cfg)
		printResult("fig7", res.Format())
		b.ReportMetric(col(res, "Token-based", 150000, "ls_p99_us"), "token_ls_p99us@150K")
		b.ReportMetric(col(res, "Round Robin", 150000, "ls_p99_us"), "rr_ls_p99us@150K")
		b.ReportMetric(col(res, "Token-based", 150000, "be_tput_rps"), "token_be_tput@150K")
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig8()
		cfg.Loads = trim(cfg.Loads, benchPoints)
		res := experiments.Fig8(cfg)
		printResult("fig8", res.Format())
		b.ReportMetric(col(res, "SCAN Avoid + Thread Scheduling", 8000, "get_p99_us"), "combined_get_p99us@8K")
		b.ReportMetric(col(res, "SCAN Avoid", 8000, "get_p99_us"), "scanavoid_get_p99us@8K")
		b.ReportMetric(col(res, "Thread Scheduling", 2000, "get_p99_us"), "threadsched_get_p99us@2K")
	}
}

func BenchmarkFig9a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig9a()
		cfg.Loads = trim(cfg.Loads, benchPoints)
		res := experiments.Fig9(cfg)
		printResult("fig9a", res.Format())
		b.ReportMetric(col(res, "SW Redirect (Original MICA)", 2000000, "p999_us"), "redirect_p999us@2M")
		b.ReportMetric(col(res, "Syrup SW (Kernel)", 2000000, "p999_us"), "sw_p999us@2M")
		b.ReportMetric(col(res, "Syrup HW (NIC)", 2500000, "p999_us"), "hw_p999us@2.5M")
	}
}

func BenchmarkFig9b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig9b()
		cfg.Loads = trim(cfg.Loads, benchPoints)
		res := experiments.Fig9(cfg)
		printResult("fig9b", res.Format())
		b.ReportMetric(col(res, "Syrup SW (Kernel)", 2000000, "p999_us"), "sw_p999us@2M")
		b.ReportMetric(col(res, "Syrup HW (NIC)", 2500000, "p999_us"), "hw_p999us@2.5M")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		printResult("table2", experiments.FormatTable2(rows))
		for _, r := range rows {
			if r.Policy == "round_robin" {
				b.ReportMetric(float64(r.Instructions), "rr_insns")
				b.ReportMetric(r.WallNanos, "rr_interp_ns")
			}
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		printResult("table3", experiments.FormatTable3(rows))
		for _, r := range rows {
			switch r.Backend {
			case "Host":
				b.ReportMetric(r.GetNanos, "host_get_ns")
			case "Offload":
				b.ReportMetric(r.GetNanos, "offload_get_ns")
			}
		}
	}
}

// col fetches a column value from a series at x.
func col(r *experiments.Result, series string, x float64, name string) float64 {
	for _, s := range r.Series {
		for _, row := range s.Rows {
			if v, ok := row.Cols[name]; ok && s.Name == series && row.X == x {
				return v
			}
		}
	}
	panic(fmt.Sprintf("%s has no %s column in %s@%v", r.Name, name, series, x))
}
