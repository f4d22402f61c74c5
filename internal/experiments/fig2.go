package experiments

import (
	"fmt"

	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Fig2Config parameterizes the §2.1 motivation experiment: a 6-thread
// RocksDB server handling homogeneous GETs (10–12 µs) through 50 client
// 5-tuples, with Linux's hash-based reuseport selection against a Syrup
// round-robin policy.
type Fig2Config struct {
	Loads []float64
	Seeds int // paper: 20 runs; error bars come from re-drawn flow pools
	Run   RunConfig
}

// DefaultFig2 mirrors the paper's axes: 50–500 K RPS.
func DefaultFig2() Fig2Config {
	return Fig2Config{
		Loads: loadsBetween(50_000, 500_000, 10),
		Seeds: 5,
		Run:   RunConfig{Windows: DefaultWindows},
	}
}

// Fig2 reproduces Figure 2: 99% latency (a) and % dropped requests (b)
// under 100% GET load, Vanilla Linux vs Round Robin.
func Fig2(cfg Fig2Config) *Result {
	res := &Result{
		Name:    "fig2",
		Title:   "RocksDB, 100% GET, 6 threads/6 cores, 50 flows (paper Fig. 2)",
		XLabel:  "load (RPS)",
		Columns: []string{"p99_us", "p99_stdev_us", "drop_pct"},
		Notes: []string{
			"vanilla = Linux reuseport 5-tuple hash; its imbalance (and noise) comes from how 50 random flows land on 6 sockets",
			fmt.Sprintf("each point aggregates %d seeds (paper: 20 runs)", cfg.Seeds),
		},
	}
	for _, pol := range []SocketPolicy{PolicyVanilla, PolicyRoundRobin} {
		pol := pol
		name := "Vanilla Linux"
		if pol == PolicyRoundRobin {
			name = "Round Robin"
		}
		// Every (load, seed) pair is an independent simulation; fan them
		// all out and aggregate per load in seed order.
		rows := sweepSeeded(cfg.Run, cfg.Loads, cfg.Seeds, func(load float64, seed int) rocksPoint {
			return rocksPoint{
				Seed:       uint64(1000*seed + 7),
				Load:       load,
				NumThreads: 6,
				PinToCores: true,
				Flows:      50,
				Classes:    []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
				Policy:     pol,
				Run:        cfg.Run,
			}
		})
		res.Series = append(res.Series, Series{Name: name, Rows: rows})
	}
	return res
}
