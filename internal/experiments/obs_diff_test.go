package experiments

import (
	"testing"

	"syrup/internal/apps/mica"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// The telemetry plane's contract with the figure pipelines: a host with
// the sampler attached must produce bit-identical simulation results to
// one without, because the sampler rides the engine's clock advances —
// it schedules no events, consumes no sequence numbers, and draws no
// randomness (see DESIGN.md "Telemetry plane"). These gates run one slice
// of each figure pipeline with telemetry toggled.

// diffWindows keeps the differential slices quick; bit-identity must hold
// for any window lengths, so short ones lose no coverage.
var diffWindows = Windows{
	Warmup:  20 * 1e6,
	Measure: 80 * 1e6,
	Drain:   60 * 1e6,
}

// withObs runs fn with telemetry off (the reference) and then with the
// sampler attached at two periods, asserting every digest matches.
func withObs(t *testing.T, label string, fn func() string) {
	t.Helper()
	defer SetObsPeriod(0)
	SetObsPeriod(0)
	ref := fn()
	for _, period := range []sim.Time{sim.Millisecond, 100 * sim.Microsecond} {
		SetObsPeriod(period)
		if got := fn(); got != ref {
			t.Fatalf("%s diverged with sampler period=%v:\n--- off\n%s--- on\n%s", label, period, ref, got)
		}
	}
}

// TestObsDifferentialFig2Slice: vanilla vs round-robin reuseport with the
// sampler on vs off. Also asserts the sampler actually recorded series —
// a vacuous pass (telemetry silently disabled) must fail.
func TestObsDifferentialFig2Slice(t *testing.T) {
	for _, pol := range []SocketPolicy{PolicyVanilla, PolicyRoundRobin} {
		withObs(t, "fig2/"+string(pol), func() string {
			r := runRocksPoint(rocksPoint{
				Seed: 1007, Load: 300_000, NumCPUs: 6, NumThreads: 6,
				PinToCores: true, Flows: 50,
				Classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
				Policy:  pol, Windows: diffWindows,
			})
			return StatsDigest(r)
		})
	}

	SetObsPeriod(sim.Millisecond)
	defer SetObsPeriod(0)
	_, _, host := runRocksPointFull(rocksPoint{
		Seed: 1007, Load: 300_000, NumCPUs: 6, NumThreads: 6,
		PinToCores: true, Flows: 50,
		Classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
		Policy:  PolicyRoundRobin, Windows: diffWindows,
	})
	if host.Obs == nil {
		t.Fatal("SetObsPeriod did not attach a sampler")
	}
	snap := host.Obs.Store().Snapshot()
	if len(snap) == 0 {
		t.Fatal("sampler attached but recorded no series")
	}
	want := map[string]bool{"rps": false, "drop_rate": false, "softirq_backlog": false, "latency_GET_p99_us": false}
	for _, s := range snap {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if len(s.T) == 0 {
			t.Fatalf("series %s is empty", s.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("snapshot missing %s (have %d series)", name, len(snap))
		}
	}
}

// TestObsDifferentialFig6Slice: the map-heavy scan_avoid and sita
// policies.
func TestObsDifferentialFig6Slice(t *testing.T) {
	for _, pol := range []SocketPolicy{PolicyScanAvoid, PolicySITA} {
		withObs(t, "fig6/"+string(pol), func() string {
			r := runRocksPoint(rocksPoint{
				Seed: 2011, Load: 200_000, NumCPUs: 6, NumThreads: 6,
				PinToCores: true, Flows: 50,
				Classes: fig6Mix, Policy: pol, Windows: diffWindows,
			})
			return StatsDigest(r)
		})
	}
}

// TestObsDifferentialFig8Slice: ghOSt thread scheduling on top of socket
// steering — the ghost_runnable gauge reads agent state every tick.
func TestObsDifferentialFig8Slice(t *testing.T) {
	withObs(t, "fig8/scan_avoid+threadsched", func() string {
		r := runRocksPoint(rocksPoint{
			Seed: 47, Load: 120_000, NumCPUs: 6, NumThreads: 36,
			PinToCores: false, Classes: fig8Mix,
			Policy: PolicyScanAvoid, ThreadSched: true, Windows: diffWindows,
		})
		return StatsDigest(r)
	})
}

// TestObsDifferentialFig9Slice: MICA steering at kernel and NIC layers.
func TestObsDifferentialFig9Slice(t *testing.T) {
	for _, mode := range []mica.Mode{mica.ModeSyrupSW, mica.ModeSyrupHW} {
		withObs(t, "fig9/"+mode.String(), func() string {
			r := runMicaPoint(micaPoint{
				Seed: 53, Load: 800_000, Mode: mode, GetFrac: 0.5,
				Windows: diffWindows,
			})
			return StatsDigest(r)
		})
	}
}

// TestObsDifferentialCluster: the fleet scenario end to end — per-host
// samplers, the control plane's rollout, and parallel host execution —
// digests bit-identically with telemetry on vs off.
func TestObsDifferentialCluster(t *testing.T) {
	run := func() string {
		cr, err := RunCluster(ClusterConfig{Hosts: 3, Seed: 11, TotalLoad: 120_000, Windows: diffWindows})
		if err != nil {
			t.Fatal(err)
		}
		return cr.Digest()
	}
	defer SetObsPeriod(0)
	SetObsPeriod(0)
	ref := run()
	SetObsPeriod(sim.Millisecond)
	if got := run(); got != ref {
		t.Fatalf("cluster digest diverged with telemetry on:\n--- off\n%s--- on\n%s", ref, got)
	}
}
