package experiments

import (
	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Fig8Config parameterizes §5.3: 50% GET / 50% SCAN on 36 threads over 6
// cores (kernel 4.19 + ghOSt), comparing request scheduling only (SCAN
// Avoid under CFS), thread scheduling only (ghOSt GET-priority under
// vanilla socket hashing), and the two combined. When thread scheduling is
// active one core hosts the spinning agent, leaving five workers.
type Fig8Config struct {
	Loads []float64
	Run   RunConfig
}

// DefaultFig8 mirrors the paper's axes: up to 14 K RPS.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Loads: loadsBetween(2_000, 14_000, 7),
		Run:   RunConfig{Windows: DefaultWindows},
	}
}

var fig8Mix = []workload.Class{
	{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
	{Name: "SCAN", Weight: 0.5, Type: policy.ReqSCAN},
}

// Fig8 reproduces Figure 8: GET (a) and SCAN (b) 99% latency for
// single-layer vs cross-layer Syrup scheduling.
func Fig8(cfg Fig8Config) *Result {
	res := &Result{
		Name:    "fig8",
		Title:   "RocksDB, 50% GET / 50% SCAN, 36 threads on 6 cores (paper Fig. 8)",
		XLabel:  "load (RPS)",
		Columns: []string{"get_p99_us", "scan_p99_us", "get_drop_pct", "scan_drop_pct"},
		Notes: []string{
			"thread scheduling reserves one core for the ghOSt agent (5 app cores), which is why SCAN capacity dips slightly (paper §5.3)",
			"the vanilla Linux baseline is omitted as in the paper (latency off the chart)",
		},
	}
	series := []struct {
		name        string
		pol         SocketPolicy
		threadSched bool
	}{
		{"SCAN Avoid", PolicyScanAvoid, false},
		{"Thread Scheduling", PolicyVanilla, true},
		{"SCAN Avoid + Thread Scheduling", PolicyScanAvoid, true},
	}
	// Fan out every (series, load) pair in one worker pool so a slow
	// series does not serialize behind the others.
	grid := sweepGrid(cfg.Run, len(series), cfg.Loads, func(si int, load float64) Row {
		s := series[si]
		r := runRocksPoint(rocksPoint{
			Seed:        47,
			Load:        load,
			NumThreads:  36,
			PinToCores:  false, // CFS/ghOSt place threads
			Classes:     fig8Mix,
			Policy:      s.pol,
			ThreadSched: s.threadSched,
			Run:         cfg.Run,
		}).Result
		get := r.PerClass["GET"]
		scan := r.PerClass["SCAN"]
		return Row{X: load, Cols: map[string]float64{
			"get_p99_us":    float64(get.Latency.Percentile(99)) / 1000,
			"scan_p99_us":   float64(scan.Latency.Percentile(99)) / 1000,
			"get_drop_pct":  100 * get.DropFraction(),
			"scan_drop_pct": 100 * scan.DropFraction(),
		}}
	})
	for si, s := range series {
		res.Series = append(res.Series, Series{Name: s.name, Rows: grid[si]})
	}
	return res
}
