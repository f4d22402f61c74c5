package experiments

import (
	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Ablations probe the design discussions around the paper's evaluation:
//
//   - AblationLateBinding (§6.3): the paper notes its network hooks bind
//     inputs to executors early, which can reintroduce head-of-line
//     blocking, and sketches late binding as future work. We implement the
//     shared-queue model and compare it against the early-binding policies
//     on Fig. 6's bimodal workload.
//   - AblationRFS (§2.1): round robin beats hashing under imbalance, "but
//     it is no panacea" — hash steering is what makes flow locality (RFS)
//     possible. With a flow-locality service discount, hash steering wins
//     back throughput on a locality-sensitive workload.

// AblationLateBindingConfig parameterizes the late-binding comparison.
type AblationLateBindingConfig struct {
	Loads []float64
	Run   RunConfig
}

// DefaultAblationLateBinding uses Fig. 6's axes.
func DefaultAblationLateBinding() AblationLateBindingConfig {
	return AblationLateBindingConfig{
		Loads: loadsBetween(40_000, 400_000, 10),
		Run:   RunConfig{Windows: DefaultWindows},
	}
}

// AblationLateBinding compares early-binding policies against the §6.3
// shared-queue model on the 99.5% GET / 0.5% SCAN workload.
func AblationLateBinding(cfg AblationLateBindingConfig) *Result {
	res := &Result{
		Name:    "ablation-late",
		Title:   "Early vs late binding, 99.5% GET / 0.5% SCAN, 6 threads (paper §6.3)",
		XLabel:  "load (RPS)",
		Columns: []string{"p99_us", "drop_pct"},
		Notes: []string{
			"late binding = one shared queue, executors pull work when free: GETs only wait when every thread is busy with a SCAN",
			"late binding dominates size-oblivious early binding (round robin) but size-aware SITA still wins the extreme tail; it also needs scheduler-side queueing the Linux hooks lack — the paper's motivation for §6.3",
		},
	}
	type variant struct {
		name string
		pol  SocketPolicy
		late bool
	}
	for _, v := range []variant{
		{"Round Robin (early)", PolicyRoundRobin, false},
		{"SITA (early)", PolicySITA, false},
		{"Late Binding", PolicyVanilla, true},
	} {
		v := v
		rows := sweep(cfg.Run, cfg.Loads, func(load float64) Row {
			r := runRocksPoint(rocksPoint{
				Seed: 61, Load: load, NumCPUs: 6, NumThreads: 6, PinToCores: true,
				Flows: 50, Classes: fig6Mix, Policy: v.pol, LateBinding: v.late,
				Run: cfg.Run,
			}).Result
			return Row{X: load, Cols: map[string]float64{
				"p99_us":   float64(r.All.Latency.Percentile(99)) / 1000,
				"drop_pct": 100 * r.All.DropFraction(),
			}}
		})
		res.Series = append(res.Series, Series{Name: v.name, Rows: rows})
	}
	return res
}

// AblationRFSConfig parameterizes the locality comparison.
type AblationRFSConfig struct {
	Loads []float64
	Bonus float64 // service-time discount on a flow-local request
	Flows int
	Run   RunConfig
}

// DefaultAblationRFS uses a locality-sensitive setup: few, hot flows and a
// 30% warm-flow discount.
func DefaultAblationRFS() AblationRFSConfig {
	return AblationRFSConfig{
		Loads: loadsBetween(100_000, 600_000, 6),
		Bonus: 0.30,
		Flows: 12,
		Run:   RunConfig{Windows: DefaultWindows},
	}
}

// AblationRFS compares hash steering (which preserves flow→thread affinity
// and hence RFS-style locality) against round robin (which destroys it) on
// a 100% GET workload whose service time rewards locality.
func AblationRFS(cfg AblationRFSConfig) *Result {
	res := &Result{
		Name:    "ablation-rfs",
		Title:   "Locality vs balance: hash steering + RFS against round robin (paper §2.1)",
		XLabel:  "load (RPS)",
		Columns: []string{"mean_us", "p99_us", "drop_pct", "locality_pct"},
		Notes: []string{
			"hash steering keeps each flow on one thread, so nearly every request hits the warm-flow discount and mean latency drops",
			"the trade-off is two-sided, exactly as §2.1 argues: round robin wins tails once hash imbalance bites at high load, while locality-sensitive workloads prefer hashing — no one-size-fits-all policy",
		},
	}
	for _, v := range []struct {
		name string
		pol  SocketPolicy
	}{
		{"Hash + RFS", PolicyVanilla},
		{"Round Robin", PolicyRoundRobin},
	} {
		v := v
		rows := sweep(cfg.Run, cfg.Loads, func(load float64) Row {
			pt := rocksPoint{
				Seed: 71, Load: load, NumCPUs: 6, NumThreads: 6, PinToCores: true,
				Flows: cfg.Flows,
				Classes: []workload.Class{
					{Name: "GET", Weight: 1, Type: policy.ReqGET},
				},
				Policy:            v.pol,
				FlowLocalityBonus: cfg.Bonus,
				Run:               cfg.Run,
			}
			run := runRocksPoint(pt)
			r := run.Result
			return Row{X: load, Cols: map[string]float64{
				"mean_us":      r.All.Latency.Mean() / 1000,
				"p99_us":       float64(r.All.Latency.Percentile(99)) / 1000,
				"drop_pct":     100 * r.All.DropFraction(),
				"locality_pct": run.localityPct(),
			}}
		})
		res.Series = append(res.Series, Series{Name: v.name, Rows: rows})
	}
	return res
}

// localityPct is the percentage of requests that hit the warm-flow
// locality discount (the RFS ablation's metric).
func (r *rocksRun) localityPct() float64 {
	total := r.Srv.ProcessedGET + r.Srv.ProcessedSCAN
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Srv.LocalityHits) / float64(total)
}
