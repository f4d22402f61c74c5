package experiments

import (
	"testing"

	"syrup/internal/sim"
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

// withObs takes the pinned scenario of that name as the telemetry-off
// reference and runs it again with the sampler attached at two periods,
// asserting every digest (and event count) matches.
func withObs(t *testing.T, name string) {
	t.Helper()
	ref := pinnedDigest(name)
	for _, period := range []sim.Time{sim.Millisecond, 100 * sim.Microsecond} {
		if got := scenario(name)(RunConfig{ObsPeriod: period}); got != ref {
			t.Fatalf("%s diverged with sampler period=%v:\n--- off\n%s--- on\n%s", name, period, ref, got)
		}
	}
}

// TestObsDifferentialFig2Slice: vanilla vs round-robin reuseport with the
// sampler on vs off. Also asserts the sampler actually recorded series —
// a vacuous pass (telemetry silently disabled) must fail.
func TestObsDifferentialFig2Slice(t *testing.T) {
	t.Parallel()
	withObs(t, "fig2/vanilla")
	withObs(t, "fig2/round_robin")

	host := runRocksPoint(fig2Slice(PolicyRoundRobin, RunConfig{ObsPeriod: sim.Millisecond})).Host
	if host.Obs == nil {
		t.Fatal("Run.ObsPeriod did not attach a sampler")
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
	t.Parallel()
	withObs(t, "fig6/scan_avoid")
	withObs(t, "fig6/sita")
}

// TestObsDifferentialFig8Slice: ghOSt thread scheduling on top of socket
// steering — the ghost_runnable gauge reads agent state every tick.
func TestObsDifferentialFig8Slice(t *testing.T) {
	t.Parallel()
	withObs(t, "fig8/scan_avoid+threadsched")
}

// TestObsDifferentialFig9Slice: MICA steering at kernel and NIC layers.
func TestObsDifferentialFig9Slice(t *testing.T) {
	t.Parallel()
	withObs(t, "fig9/sw")
	withObs(t, "fig9/hw")
}

// TestObsDifferentialCluster: the fleet scenarios end to end — per-host
// samplers, the control plane's rollout, and parallel host execution —
// digest bit-identically with telemetry on vs off.
func TestObsDifferentialCluster(t *testing.T) {
	t.Parallel()
	withObs(t, "fleet/rocksdb-4")
	withObs(t, "fleet/mica-4")
}
