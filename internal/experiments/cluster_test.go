package experiments

import (
	"strings"
	"testing"
)

// TestClusterWorkersDifferential is the fleet determinism gate: the same
// 4-host LS/BE scenario must produce byte-identical per-host and fleet
// digests whether the host simulations run sequentially or on 4 workers.
func TestClusterWorkersDifferential(t *testing.T) {
	ref := clusterDigest(fleetRocks(RunConfig{Workers: 1}))
	if ref != pinnedDigest("fleet/rocksdb-4") {
		t.Fatal("the fleet at Workers 1 is not the pinned fleet (default width)")
	}
	if got := clusterDigest(fleetRocks(RunConfig{Workers: 4})); got != ref {
		t.Fatalf("cluster run diverged across worker counts:\n--- workers=1\n%s--- workers=4\n%s", ref, got)
	}
}

// TestClusterMicaWorkersDifferential: the sharded-MICA variant of the
// same gate, including the XDP-hook rollout path.
func TestClusterMicaWorkersDifferential(t *testing.T) {
	ref := clusterDigest(fleetMica(RunConfig{Workers: 1}))
	if ref != pinnedDigest("fleet/mica-4") {
		t.Fatal("the fleet at Workers 1 is not the pinned fleet (default width)")
	}
	if got := clusterDigest(fleetMica(RunConfig{Workers: 4})); got != ref {
		t.Fatalf("mica cluster run diverged across worker counts:\n--- workers=1\n%s--- workers=4\n%s", ref, got)
	}
}

// TestClusterScenarioShape pins the structural invariants of a fleet run:
// the rollout went through the control plane and reached every host, every
// host served its own flow share, the fleet aggregate is the exact sum,
// and — for mica — shard-aware clients mean no workload request was ever
// steered to a host that does not own its key.
func TestClusterScenarioShape(t *testing.T) {
	r, err := RunCluster(ClusterConfig{
		Hosts: 4, Seed: 42,
		App: "rocksdb", TotalLoad: 4 * 120_000, Flows: 2000,
		Run: RunConfig{Windows: diffWindows, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rollout == nil || r.Rollout.Aborted || r.Rollout.Deployed != 4 {
		t.Fatalf("rollout did not reach the fleet: %+v", r.Rollout)
	}
	if len(r.Rollout.Canaries) == 0 {
		t.Fatal("rollout ran without a canary stage")
	}
	var offered, completed uint64
	flows := 0
	for _, m := range r.Members {
		if m.Flows == 0 || m.Result.All.Completed == 0 {
			t.Fatalf("%s served nothing (flows=%d completed=%d)", m.Name, m.Flows, m.Result.All.Completed)
		}
		offered += m.Result.All.Offered
		completed += m.Result.All.Completed
		flows += m.Flows
	}
	if flows != 2000 {
		t.Fatalf("members hold %d flows, want 2000", flows)
	}
	if r.Fleet.All.Offered != offered || r.Fleet.All.Completed != completed {
		t.Fatalf("fleet aggregate (%d/%d) is not the member sum (%d/%d)",
			r.Fleet.All.Offered, r.Fleet.All.Completed, offered, completed)
	}
	if ls := r.Fleet.PerClass["LS"]; ls == nil || ls.Completed == 0 {
		t.Fatal("fleet LS class empty")
	}
	if !strings.Contains(r.Format(), "FLEET") {
		t.Fatal("Format misses the fleet row")
	}

	mr, err := RunCluster(ClusterConfig{
		Hosts: 4, Seed: 7,
		App: "mica", TotalLoad: 4 * 200_000, Flows: 2000,
		Run: RunConfig{Windows: diffWindows, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mr.Members {
		// Rollout probes hash anywhere and may land foreign; workload
		// requests are shard-aware and never may.
		if m.Foreign > 32 {
			t.Fatalf("%s refused %d foreign requests; workload leaked across shards", m.Name, m.Foreign)
		}
		if m.Result.All.Completed == 0 {
			t.Fatalf("%s completed nothing", m.Name)
		}
	}
}

// TestClusterSeedChangesResults: different cluster seeds must give
// different fleets (different member seeds, flow pools, and canaries) —
// the determinism above is per-seed, not degenerate.
func TestClusterSeedChangesResults(t *testing.T) {
	run := func(seed uint64) string {
		r, err := RunCluster(ClusterConfig{
			Hosts: 2, Seed: seed,
			App: "rocksdb", TotalLoad: 2 * 100_000, Flows: 500,
			Run: RunConfig{Windows: diffWindows, Workers: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Digest()
	}
	if run(42) == run(43) {
		t.Fatal("seeds 42 and 43 produced identical cluster digests")
	}
}

// TestClusterRejectsUnrunnableConfigs: a config that cannot do what it
// says is refused before any host is built.
func TestClusterRejectsUnrunnableConfigs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  ClusterConfig
		want string
	}{
		{"LS share above 1", ClusterConfig{LSFrac: 1.5}, "LSFrac 1.5"},
		{"negative LS share", ClusterConfig{LSFrac: -0.1}, "LSFrac -0.1"},
		{"unknown app", ClusterConfig{App: "redis"}, `unknown app "redis"`},
	} {
		if _, err := RunCluster(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}
