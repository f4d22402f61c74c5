package syrupd

import (
	"strings"
	"sync"
	"testing"
	"time"

	"syrup/internal/faults"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

func TestQuarantineDetachesFaultingPolicy(t *testing.T) {
	h := newHost(t, 1, 0)
	r := trace.New(1 << 12)
	h.Tracer = r
	h.d.RegisterApp(1, 1000, 9000)
	s0, _ := h.stack.NewUDPSocket(9000, 1, "w0")
	s1, _ := h.stack.NewUDPSocket(9000, 1, "w1")
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}

	// Every socket-select run faults; the watchdog samples each window.
	plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}}}
	h.Faults = plan.Compile(1, h.Eng.Now)
	h.d.EnableQuarantine()

	// Packets over two windows: twice the threshold of faulted runs land in
	// the first.
	const n = 4 * quarantineThreshold
	for i := 0; i < n; i++ {
		id := uint64(i)
		h.Eng.CallAt(sim.Time(i)*quarantineWindow/(2*quarantineThreshold), func(any, uint64) {
			h.dev.Receive(pkt(id, uint16(1000+id), 9000, nil))
		}, nil, 0)
	}
	h.Eng.RunUntil(3 * quarantineWindow)

	if !h.d.Quarantined(1, HookSocketSelect) {
		t.Fatal("faulting policy was not quarantined")
	}
	if h.stack.LookupGroup(9000).Hook().Attached() {
		t.Fatal("hook still attached after quarantine")
	}
	if q := h.d.quarantines; q != 1 {
		t.Fatalf("quarantine events = %d, want 1", q)
	}
	// Degraded, not dead: every packet was delivered — faulted runs fall
	// open to hash select, and post-quarantine the kernel default serves.
	if got := s0.Enqueued + s1.Enqueued; got != n {
		t.Fatalf("delivered %d of %d under quarantine", got, n)
	}
	// The links op reports the quarantined deployment.
	links := h.d.Links()
	if len(links) != 1 || !links[0].Quarantined {
		t.Fatalf("links = %+v, want one quarantined entry", links)
	}
	// An error-tagged instant span marks the event.
	var found bool
	for _, sp := range r.Spans() {
		if sp.Stage == trace.StageHook && sp.Err && sp.Verdict == trace.VerdictFault &&
			sp.Policy == "app1-socket_select" {
			found = true
		}
	}
	if !found {
		t.Fatal("no quarantine span recorded")
	}

	// Deploys at the hook are refused until the operator re-arms.
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err == nil ||
		!strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("deploy while quarantined: %v", err)
	}
	if err := h.d.Unquarantine(1, HookSocketSelect); err != nil {
		t.Fatal(err)
	}
	if err := h.d.Unquarantine(1, HookSocketSelect); err == nil {
		t.Fatal("double unquarantine accepted")
	}
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatalf("redeploy after unquarantine: %v", err)
	}
}

// TestRevokedPolicyNeverRuns revokes with packets already in flight: the
// revoked programs must not run once more, and the packets reach the app
// via kernel defaults.
func TestRevokedPolicyNeverRuns(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	s0, _ := h.stack.NewUDPSocket(9000, 1, "w0")
	s1, _ := h.stack.NewUDPSocket(9000, 1, "w1")
	sel, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	xdp, err := h.d.DeployPolicy(1, HookXDPDrv, "r0 = DROP\nexit\n", nil)
	if err != nil {
		t.Fatal(err)
	}

	// In flight: received by the NIC, not yet processed by the stack.
	for i := 0; i < 10; i++ {
		h.dev.Receive(pkt(uint64(i), uint16(1000+i), 9000, nil))
	}
	if err := h.d.RevokeApp(1); err != nil {
		t.Fatal(err)
	}
	h.Eng.Run()

	if runs := sel.Program().Stats().Runs; runs != 0 {
		t.Fatalf("revoked socket-select policy ran %d times", runs)
	}
	if runs := xdp.Program().Stats().Runs; runs != 0 {
		t.Fatalf("revoked XDP policy ran %d times", runs)
	}
	// Neither dropped by the dead XDP policy nor steered: default path.
	if got := s0.Enqueued + s1.Enqueued; got != 10 {
		t.Fatalf("delivered %d of 10 after revoke", got)
	}
}

// TestRevokeUnpinsMapsAndStopsAgent checks RevokeApp detaches fully:
// pinned maps disappear from the namespace and the ghOSt agent quiesces
// (a thread's message queues, its Messages count stays put), while a
// redeploy re-creates both (the queued message is processed).
func TestRevokeUnpinsMapsAndStopsAgent(t *testing.T) {
	h := newHost(t, 1, 3)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w0")
	src := ".map counter hash 4 8 4\nr0 = 0\nexit\n"
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, src, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.OpenMap("/syrup/1/counter", 1000, false); err != nil {
		t.Fatalf("pinned map unreachable before revoke: %v", err)
	}
	var idle idlePolicy
	agent, err := h.d.DeployThreadPolicy(1, idle, 0, []kernel.CPUID{1, 2})
	if err != nil {
		t.Fatal(err)
	}

	if err := h.d.RevokeApp(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.OpenMap("/syrup/1/counter", 1000, false); err == nil {
		t.Fatal("revoked app's pinned map still reachable")
	}
	if len(h.d.pins.List("/syrup/1/")) != 0 {
		t.Fatal("pin directory not emptied by revoke")
	}
	th := h.m.NewThread("w", 1, h.m.AffinityAll(), func(th *kernel.Thread) { th.Exit() })
	if err := agent.Register(th); err != nil {
		t.Fatal(err)
	}
	h.Eng.Run()
	if agent.Messages != 0 {
		t.Fatalf("ghOSt agent processed %d messages after revoke", agent.Messages)
	}

	// Redeploy: maps re-create and re-pin, the same enclave resumes.
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, src, nil); err != nil {
		t.Fatalf("redeploy after revoke: %v", err)
	}
	if _, err := h.d.OpenMap("/syrup/1/counter", 1000, false); err != nil {
		t.Fatalf("re-pinned map unreachable: %v", err)
	}
	agent2, err := h.d.DeployThreadPolicy(1, idle, 0, []kernel.CPUID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if agent2 != agent {
		t.Fatal("redeploy created a second agent for the same enclave")
	}
	h.Eng.Run()
	if agent.Messages != 1 {
		t.Fatalf("agent processed %d messages after redeploy, want the one queued: it did not resume", agent.Messages)
	}
}

// TestServerQuarantineOpsUnderLoad hammers deploy/unquarantine/snapshot
// through the server's mailbox from racing goroutines while Serve advances
// the simulation — the -race companion to the deterministic tests.
func TestServerQuarantineOpsUnderLoad(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w0")
	h.stack.NewUDPSocket(9000, 1, "w1")
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}}}
	h.Faults = plan.Compile(7, h.Eng.Now)
	h.d.EnableQuarantine()
	srv := NewServer(h.d)
	step := 0
	tick, stopServing := serving(srv, func() {
		h.dev.Receive(pkt(uint64(step), uint16(1000+step%64), 9000, nil))
		h.Eng.RunUntil(h.Eng.Now() + 100*sim.Microsecond)
		step++
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	ops := []Request{
		{Op: "deploy", App: 1, Hook: "socket_select", Source: "r0 = 1\nexit\n"},
		{Op: "unquarantine", App: 1, Hook: "socket_select"},
		{Op: "snapshot"},
	}
	for g := range ops {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.Do(&req) // errors (quarantined, not-quarantined) are expected
			}
		}(ops[g])
	}

	// One packet per 100 µs for three windows.
	for range int(3 * quarantineWindow / (100 * sim.Microsecond)) {
		tick <- time.Time{}
	}
	close(stop)
	wg.Wait()
	stopServing()

	// The first window sees more injected faults than the threshold, so
	// at least one quarantine must have fired regardless of op
	// interleaving.
	if h.d.quarantines == 0 {
		t.Fatal("no quarantine under load")
	}
	if h.stack.Stats.Processed == 0 {
		t.Fatal("simulation made no progress")
	}
}

// idlePolicy is a ghOSt policy that never places a thread.
type idlePolicy struct{}

func (idlePolicy) Schedule(sim.Time, []*kernel.Thread, []ghost.CPUView) []ghost.Placement {
	return nil
}

// Quarantined reports whether the app is quarantined at hk.
func (d *Daemon) Quarantined(appID uint32, hk Hook) bool {
	app, ok := d.apps[appID]
	return ok && app.quarantined[hk] != nil
}
