package experiments

import (
	"testing"

	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Late binding (§6.3): on the bimodal workload it must beat round-robin
// early binding at moderate load (GETs only wait when every executor is
// SCAN-busy).
func TestShapeAblationLateBinding(t *testing.T) {
	if testing.Short() {
		t.Skip("long shape test")
	}
	point := func(pol SocketPolicy, late bool) float64 {
		r := runRocksPoint(rocksPoint{
			Seed: 61, Load: 200_000, NumThreads: 6, PinToCores: true,
			Flows: 50, Classes: fig6Mix, Policy: pol, LateBinding: late,
			Run: RunConfig{Windows: FastWindows},
		}).Result
		return float64(r.All.Latency.Percentile(99)) / 1000
	}
	rr := point(PolicyRoundRobin, false)
	late := point(PolicyVanilla, true)
	if late*2 > rr {
		t.Fatalf("late binding p99 %.0fus not well below round robin %.0fus", late, rr)
	}
}

// RFS ablation (§2.1): hash steering keeps flows warm (high locality,
// lower mean); round robin forfeits the discount.
func TestShapeAblationRFS(t *testing.T) {
	if testing.Short() {
		t.Skip("long shape test")
	}
	point := func(pol SocketPolicy) (mean float64, locality float64) {
		pt := rocksPoint{
			Seed: 71, Load: 100_000, NumThreads: 6, PinToCores: true,
			Flows:   rfsFlows,
			Classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
			Policy:  pol, FlowLocalityBonus: rfsBonus,
			Run: RunConfig{Windows: FastWindows},
		}
		run := runRocksPoint(pt)
		return run.Result.All.Latency.Mean() / 1000, run.localityPct()
	}
	hashMean, hashLoc := point(PolicyVanilla)
	rrMean, rrLoc := point(PolicyRoundRobin)
	if hashLoc < 90 {
		t.Fatalf("hash steering locality = %.0f%%, want ~100%%", hashLoc)
	}
	if rrLoc > 60 {
		t.Fatalf("round robin locality = %.0f%%, want low", rrLoc)
	}
	if hashMean >= rrMean {
		t.Fatalf("hash+RFS mean %.1fus not below round robin %.1fus at moderate load", hashMean, rrMean)
	}
}
