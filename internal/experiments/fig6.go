package experiments

import (
	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Fig6Config parameterizes §5.2.1: 99.5% GET / 0.5% SCAN on 6 threads,
// comparing Vanilla, Round Robin, SCAN Avoid, and SITA socket policies.
type Fig6Config struct {
	Loads []float64
	Seeds int // paper: 5 runs
	Run   RunConfig
}

// DefaultFig6 mirrors the paper's axes: up to 400 K RPS.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Loads: loadsBetween(40_000, 400_000, 10),
		Seeds: 3,
		Run:   RunConfig{Windows: DefaultWindows},
	}
}

var fig6Mix = []workload.Class{
	{Name: "GET", Weight: 0.995, Type: policy.ReqGET},
	{Name: "SCAN", Weight: 0.005, Type: policy.ReqSCAN},
}

// Fig6 reproduces Figure 6: overall 99% latency under the bimodal
// RocksDB workload for the four policies.
func Fig6(cfg Fig6Config) *Result {
	res := &Result{
		Name:    "fig6",
		Title:   "RocksDB, 99.5% GET / 0.5% SCAN(700us), 6 threads/6 cores (paper Fig. 6)",
		XLabel:  "load (RPS)",
		Columns: []string{"p99_us", "p99_stdev_us", "drop_pct"},
		Notes: []string{
			"SCAN Avoid pairs the Fig. 5c kernel policy with the app marking in-flight request types in scan_state",
			"SITA reserves socket 0 for SCANs; GETs round-robin over sockets 1-5 (Fig. 5d)",
		},
	}
	series := []struct {
		name string
		pol  SocketPolicy
	}{
		{"Vanilla Linux", PolicyVanilla},
		{"Round Robin", PolicyRoundRobin},
		{"SCAN Avoid", PolicyScanAvoid},
		{"SITA", PolicySITA},
	}
	for _, s := range series {
		s := s
		// Every (load, seed) pair is an independent simulation; fan them
		// all out and aggregate per load in seed order.
		rows := sweepSeeded(cfg.Run, cfg.Loads, cfg.Seeds, func(load float64, seed int) rocksPoint {
			return rocksPoint{
				Seed:       uint64(2000*seed + 11),
				Load:       load,
				NumThreads: 6,
				PinToCores: true,
				Flows:      50,
				Classes:    fig6Mix,
				Policy:     s.pol,
				Run:        cfg.Run,
			}
		})
		res.Series = append(res.Series, Series{Name: s.name, Rows: rows})
	}
	return res
}
