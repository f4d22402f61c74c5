package experiments

import (
	"strings"
	"testing"

	"syrup"
	"syrup/internal/faults"
	"syrup/internal/policy"
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
		Seed:   1,
		Load:   150_000,
		Policy: PolicyRoundRobin,
		Plan:   plan,
		Run:    RunConfig{Windows: FastWindows},
	})

	// The clean half runs unarmed.
	if cr.CleanHost.Faults != nil || counter(cr.CleanHost, "syrupd_quarantines") != 0 {
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

	// The report lists every host counter the chaos moved, and only those.
	out := cr.Format()
	for _, want := range []string{"goodput", "socket-select", "injected faults", "nic_dropped_ring",
		"netstack_backlog_drops", "ebpf_hook_faults_socket_select_9000", "syrupd_quarantines"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos report missing %q:\n%s", want, out)
		}
	}
	for _, unmoved := range []string{"netstack_no_group_drops", "ebpf_hook_runs_xdp"} {
		if strings.Contains(out, unmoved) {
			t.Fatalf("chaos report lists %s, which the chaos did not move:\n%s", unmoved, out)
		}
	}
}

// Quarantines reports how many quarantine events the chaotic run's
// watchdog fired.
func (cr *ChaosRun) Quarantines() uint64 { return counter(cr.ChaosHost, "syrupd_quarantines") }

// counter reads one row of host's counter list.
func counter(host *syrup.Host, name string) uint64 {
	for _, c := range host.Daemon.Counters() {
		if c.Name == name {
			return c.Value
		}
	}
	panic("no counter " + name)
}

// TestChaosWiringDoesNotPerturbWhenIdle is the determinism gate: a host
// armed with a plan whose window never opens — and with the watchdog
// ticking — must produce bit-identical results to an unarmed run, because
// the injector draws from its own per-site streams and the watchdog only
// reads counters.
func TestChaosWiringDoesNotPerturbWhenIdle(t *testing.T) {
	pt := rocksPoint{
		Seed: 7, Load: 200_000, NumThreads: 6, PinToCores: true,
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
	armed.Faults = idlePlan // arms the watchdog too
	got := runRocksPoint(armed).Result

	if *snap(plain, "") != *snap(got, "") {
		t.Fatalf("idle chaos wiring perturbed the run:\nplain: %+v\narmed: %+v",
			snap(plain, ""), snap(got, ""))
	}
}
