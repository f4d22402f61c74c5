package experiments

import (
	"strings"
	"testing"

	"syrup/internal/faults"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
	"syrup/internal/workload"
)

// TestChaosRunQuarantinesAndStaysLive is the fall-open gate: under an
// aggressive plan the run must degrade (injected drops lose requests, the
// watchdog quarantines the faulting policy) while goodput stays nonzero —
// kernel defaults serve once the policy is detached.
func TestChaosRunQuarantinesAndStaysLive(t *testing.T) {
	plan, err := faults.ParsePlan(
		"site=socket-select every=1 from=70ms until=120ms\n" +
			"site=skb-alloc prob=0.02\n" +
			"site=nic-ring prob=0.005\n")
	if err != nil {
		t.Fatal(err)
	}
	cr := RunChaos(ChaosConfig{
		Seed:       1,
		Load:       150_000,
		Policy:     PolicyRoundRobin,
		Plan:       plan,
		Quarantine: syrupd.QuarantineConfig{Window: sim.Millisecond, Threshold: 5},
		Run:        RunConfig{Windows: FastWindows},
	})

	// The clean half runs unarmed.
	if cr.CleanHost.Faults != nil || cr.CleanHost.Daemon.Quarantines() != 0 {
		t.Fatal("clean run was armed with faults or quarantined a policy")
	}
	if cr.Clean.All.Completed == 0 {
		t.Fatal("clean run completed nothing")
	}

	// Degraded, not dead.
	if cr.Chaos.All.Completed == 0 {
		t.Fatal("chaotic run wedged: zero completions")
	}
	if cr.Chaos.All.ThroughputRPS() == 0 {
		t.Fatal("chaotic run reports zero goodput")
	}
	if got, clean := cr.Chaos.All.TotalDrops(), cr.Clean.All.TotalDrops(); got <= clean {
		t.Fatalf("chaos drops %d <= clean drops %d; injection had no effect", got, clean)
	}
	if cr.ChaosHost.Faults.Injected(faults.SiteSocketSelect) == 0 {
		t.Fatal("socket-select site never fired")
	}
	if cr.Quarantines() == 0 {
		t.Fatal("watchdog never quarantined the faulting policy")
	}

	out := cr.Format()
	for _, want := range []string{"goodput", "quarantines", "socket-select", "injected faults", "backlog drops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos report missing %q:\n%s", want, out)
		}
	}
}

// TestChaosWiringDoesNotPerturbWhenIdle is the determinism gate: a host
// armed with a plan whose window never opens — and with the watchdog
// ticking — must produce bit-identical results to an unarmed run, because
// the injector draws from its own per-site streams and the watchdog only
// reads counters.
func TestChaosWiringDoesNotPerturbWhenIdle(t *testing.T) {
	pt := rocksPoint{
		Seed: 7, Load: 200_000, NumCPUs: 6, NumThreads: 6, PinToCores: true,
		Flows:   50,
		Classes: []workload.Class{{Name: "GET", Weight: 100, Type: policy.ReqGET}},
		Policy:  PolicyRoundRobin,
		Run:     RunConfig{Windows: FastWindows},
	}
	plain := runRocksPoint(pt).Result

	idlePlan, err := faults.ParsePlan("site=socket-select every=1 from=10s")
	if err != nil {
		t.Fatal(err)
	}
	armed := pt
	armed.Faults = idlePlan
	armed.Quarantine = &syrupd.QuarantineConfig{}
	got := runRocksPoint(armed).Result

	if *snap(plain, "") != *snap(got, "") {
		t.Fatalf("idle chaos wiring perturbed the run:\nplain: %+v\narmed: %+v",
			snap(plain, ""), snap(got, ""))
	}
}
