package syrupd

import (
	"fmt"
	"strings"
	"testing"

	"syrup/internal/kernel"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/storage"
)

// TestHotSwapUnderLoad replaces a Socket Select policy and an XDP policy
// mid-experiment while packets are in flight. The swap is the paper's
// dynamic redeployment (§4.3): no packet may be dropped, lost in a
// momentarily-empty slot, or dispatched twice.
func TestHotSwapUnderLoad(t *testing.T) {
	h := newHost(t, 2, 0)
	h.d.RegisterApp(1, 1000, 9000)
	s0, _ := h.stack.NewUDPSocket(9000, 1, "w0")
	s1, _ := h.stack.NewUDPSocket(9000, 1, "w1")

	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r0 = PASS\nexit\n", nil); err != nil {
		t.Fatal(err)
	}

	const total = 200
	for i := 0; i < total; i++ {
		i := i
		h.Eng.CallAt(sim.Time(i)*sim.Microsecond, func(any, uint64) {
			h.dev.Receive(pkt(uint64(i), uint16(1000+i), 9000, nil))
		}, nil, 0)
	}
	// Swap both policies mid-stream, between two arrivals.
	h.Eng.CallAt(100*sim.Microsecond+500*sim.Nanosecond, func(any, uint64) {
		if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
			t.Error(err)
		}
		if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r6 = 1\nr0 = PASS\nexit\n", nil); err != nil {
			t.Error(err)
		}
	}, nil, 0)
	h.Eng.Run()

	// Conservation: every packet dispatched exactly once — no drop, no
	// double dispatch.
	if got := s0.Enqueued + s1.Enqueued; got != total {
		t.Fatalf("enqueued %d of %d (s0=%d s1=%d)", got, total, s0.Enqueued, s1.Enqueued)
	}
	if s0.Enqueued == 0 || s1.Enqueued == 0 {
		t.Fatalf("swap had no effect: s0=%d s1=%d", s0.Enqueued, s1.Enqueued)
	}
	g := h.stack.LookupGroup(9000)
	if st := h.stack.Stats; st.TotalDrops() != 0 || s0.Drops != 0 || s1.Drops != 0 {
		t.Fatalf("drops during swap: stack %+v s0=%d s1=%d", st, s0.Drops, s1.Drops)
	}

	// The group's link survived the swap: same attachment, full run count
	// across both generations.
	l := g.Hook().Link()
	if l == nil {
		t.Fatal("socket-select link gone after the swap")
	}
	if l.Stats().Runs != total {
		t.Fatalf("link runs = %d, want %d", l.Stats().Runs, total)
	}

	// The links op sees both deployments with per-tenant run counts that
	// also survived the swap (dispatcher slots accumulate across program
	// generations).
	var sockRuns, xdpRuns uint64
	for _, li := range h.d.Links() {
		switch li.Hook {
		case string(HookSocketSelect):
			sockRuns = li.Runs
		case string(HookXDPSkb):
			xdpRuns = li.Runs
		}
	}
	if sockRuns != total || xdpRuns != total {
		t.Fatalf("link run counts: socket=%d xdp=%d, want %d", sockRuns, xdpRuns, total)
	}
}

// TestRevokeAppFallsBackEverywhere deploys one tenant across four hooks
// (offload steering, XDP drop, socket select, storage admission), revokes
// the tenant, and asserts every layer falls back to its default path:
// RSS queue choice, PASS at XDP, hash-based reuseport selection, and LBA
// striping with no admission control.
func TestRevokeAppFallsBackEverywhere(t *testing.T) {
	h := newHost(t, 2, 0)
	var completed int
	sdev := h.d.AttachStorage(storage.Config{Queues: 2, OnComplete: func(*storage.Request, sim.Time) { completed++ }})

	h.d.RegisterApp(1, 1000, 9000)
	s0, _ := h.stack.NewUDPSocket(9000, 1, "w0")
	s1, _ := h.stack.NewUDPSocket(9000, 1, "w1")

	// Offload pins everything to queue 1; socket select pins everything to
	// socket 0; storage rejects everything.
	if _, err := h.d.DeployPolicy(1, HookXDPOffload, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.DeployPolicy(1, HookStorage, "r0 = DROP\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if n := len(h.d.Links()); n != 3 {
		t.Fatalf("live links = %d, want 3", n)
	}

	const batch = 40
	recvBatch := func(base int) {
		for i := 0; i < batch; i++ {
			h.dev.Receive(pkt(uint64(base+i), uint16(1000+i), 9000, nil))
		}
		h.Eng.Run()
	}
	recvBatch(0)
	if s0.Enqueued != batch || s1.Enqueued != 0 {
		t.Fatalf("policy steering inactive: s0=%d s1=%d", s0.Enqueued, s1.Enqueued)
	}
	if sdev.Submit(&storage.Request{ID: 1, Tenant: 7, LBA: 0}) {
		t.Fatal("storage DROP policy inactive")
	}
	if drops := sdev.SubmitHook().Stats().Drops; drops != 1 {
		t.Fatalf("storage rejects = %d", drops)
	}

	if err := h.d.RevokeApp(1); err != nil {
		t.Fatal(err)
	}
	if n := len(h.d.Links()); n != 0 {
		t.Fatalf("links after revoke = %d", n)
	}
	if h.stack.LookupGroup(9000).Hook().Attached() {
		t.Fatal("socket-select hook still attached after revoke")
	}
	if sdev.SubmitHook().Attached() {
		t.Fatal("storage hook still attached after revoke")
	}

	// Fallback behavior. Socket select: hash-based reuseport spreads the
	// distinct flows over both sockets. Offload: RSS picks the queue (the
	// dispatcher root stays attached but its tail call misses and PASSes).
	s0.Enqueued, s1.Enqueued = 0, 0
	recvBatch(1000)
	if got := s0.Enqueued + s1.Enqueued; got != batch {
		t.Fatalf("post-revoke delivery %d of %d", got, batch)
	}
	if s0.Enqueued == 0 || s1.Enqueued == 0 {
		t.Fatalf("post-revoke selection not hash-spread: s0=%d s1=%d", s0.Enqueued, s1.Enqueued)
	}
	if h.dev.Stats.DroppedByXDP != 0 {
		t.Fatalf("offload dropped %d packets after revoke", h.dev.Stats.DroppedByXDP)
	}
	// Storage: admission control gone, LBA striping back.
	if !sdev.Submit(&storage.Request{ID: 2, Tenant: 7, LBA: 1}) {
		t.Fatal("storage rejected after revoke")
	}
	h.Eng.Run()
	if completed != 1 {
		t.Fatalf("storage completions = %d", completed)
	}

	// The tenant can redeploy after revocation.
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	s0.Enqueued, s1.Enqueued = 0, 0
	recvBatch(2000)
	if s1.Enqueued != batch {
		t.Fatalf("redeploy after revoke inactive: s1=%d", s1.Enqueued)
	}
}

// TestRevokeThreadPolicy revokes a tenant's userspace thread policy: the
// agent's hook empties (the enclave idles rather than running a stale
// policy) and a fresh policy can be attached to the existing enclave.
func TestRevokeThreadPolicy(t *testing.T) {
	h := newHost(t, 1, 4)
	h.d.RegisterApp(1, 1000, 9000)
	agent, err := h.d.DeployThreadPolicy(1, &policy.FIFO{}, 3, []kernel.CPUID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !agent.Hook().Attached() || len(h.d.Links()) != 1 {
		t.Fatal("thread deployment not tracked")
	}
	if err := h.d.RevokeApp(1); err != nil {
		t.Fatal(err)
	}
	if agent.Hook().Attached() || len(h.d.Links()) != 0 {
		t.Fatal("thread policy survived revoke")
	}
	// Redeploy reuses the enclave.
	agent2, err := h.d.DeployThreadPolicy(1, &policy.FIFO{}, 3, []kernel.CPUID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if agent2 != agent || !agent.Hook().Attached() {
		t.Fatal("redeploy did not reuse the enclave")
	}
	done := 0
	th := h.m.NewThread("w", 1, h.m.AffinityAll(), func(th *kernel.Thread) {
		th.Exec(10*sim.Microsecond, func() { done++; th.Exit() })
	})
	if err := agent.Register(th); err != nil {
		t.Fatal(err)
	}
	th.Wake()
	h.Eng.Run()
	if done != 1 {
		t.Fatal("redeployed thread policy did not schedule")
	}
}

// TestRevokeUnknownApp covers the error path.
func TestRevokeUnknownApp(t *testing.T) {
	h := newHost(t, 1, 0)
	if err := h.d.RevokeApp(42); err == nil {
		t.Fatal("revoking unknown app succeeded")
	}
}

// TestLinksCountInstructions: with no option set, the links op lists each
// deployment's instructions executed and per-slot hits. Two apps deploy
// round robin at one port each and N datagrams reach one port: that link
// ran N times and its hits sum to its instructions, and the other link
// lists its slots, every one at zero. The links op is the one listing;
// there is no profile op.
func TestLinksCountInstructions(t *testing.T) {
	const n = 7
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	for app := uint32(1); app <= 2; app++ {
		port := uint16(8999 + app)
		srv.Handle(&Request{Op: "register_app", App: app, UID: 1000 + app, Ports: []uint16{port}})
		h.stack.NewUDPSocket(port, app, "w0")
		h.stack.NewUDPSocket(port, app, "w1")
		deploy := &Request{Op: "deploy", App: app, Hook: "socket_select", Policy: policy.NameRoundRobin, Defines: map[string]int64{"NUM_THREADS": 2}}
		if resp := srv.Handle(deploy); !resp.OK {
			t.Fatalf("deploy: %+v", resp)
		}
	}
	for i := 0; i < n; i++ {
		h.dev.Receive(pkt(uint64(i), uint16(1000+i), 9000, nil))
	}
	h.Eng.Run()

	links := snapshotOf(t, srv).Links
	if len(links) != 2 {
		t.Fatalf("links = %+v, want 2", links)
	}
	ran, idle := links[0], links[1]
	var hits uint64
	for _, x := range ran.Hits {
		hits += x
	}
	if ran.Runs != n || ran.Insns == 0 || hits != ran.Insns || len(ran.Hits) == 0 || ran.Hits[0] != n {
		t.Fatalf("link that ran: runs %d, insns %d, hits %v (sum %d), want runs %d and hits summing to insns", ran.Runs, ran.Insns, ran.Hits, hits, n)
	}
	if idle.Runs != 0 || idle.Insns != 0 || len(idle.Hits) != len(ran.Hits) {
		t.Fatalf("idle link: %+v, want no runs and %d zero hits", idle, len(ran.Hits))
	}
	for _, x := range idle.Hits {
		if x != 0 {
			t.Fatalf("idle link hits = %v, want all zero", idle.Hits)
		}
	}
	if err := h.d.Conserved(); err != nil {
		t.Fatal(err)
	}
	if resp := srv.Handle(&Request{Op: "profile"}); resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("profile op: %+v, want unknown op", resp)
	}
}

// TestDeploymentFormsAgree: a deployment reads the same whether it owns a
// hook point (Socket Select) or a dispatcher slot (xdp_skb). Deploy at
// both, send 3 datagrams, detach both, redeploy, send 3 more: both rows
// report 3 runs, the detached deployments were no longer listed, and the
// slot row's target names the slot the dispatcher maps the app's port to.
// A Socket Select deployment over three ports is one row whose
// instructions are its program's, so Σ Insns over the rows is Σ
// InsnsExecuted over the programs deployed.
func TestDeploymentFormsAgree(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w0")
	h.stack.NewUDPSocket(9000, 1, "w1")
	hooks := []Hook{HookSocketSelect, HookXDPSkb}
	deploy := func() {
		for _, hk := range hooks {
			if _, err := h.d.DeployPolicy(1, hk, "r0 = PASS\nexit\n", nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			h.dev.Receive(pkt(uint64(i), uint16(1000+i), 9000, nil))
		}
		h.Eng.Run()
	}
	deploy()
	for _, hk := range hooks {
		if err := h.d.DetachApp(1, hk); err != nil {
			t.Fatal(err)
		}
	}
	if links := h.d.Links(); len(links) != 0 {
		t.Errorf("detached deployments still listed: %+v", links)
	}
	deploy()
	links := h.d.Links()
	if len(links) != 2 {
		t.Fatalf("links = %+v, want one per hook", links)
	}
	for _, l := range links {
		if l.Runs != 3 {
			t.Errorf("%s row reports %d runs, want 3: %+v", l.Hook, l.Runs, links)
		}
	}
	slot, ok := h.d.dispatch[HookXDPSkb].portMap.LookupUint64(9000)
	if want := fmt.Sprintf("xdp[slot %d]", slot); !ok || links[1].Target != want {
		t.Errorf("slot row target %q, want %q", links[1].Target, want)
	}

	h = newHost(t, 1, 0)
	ports := []uint16{9000, 9001, 9002}
	h.d.RegisterApp(2, 1000, ports...)
	for _, p := range ports {
		h.stack.NewUDPSocket(p, 2, "w")
	}
	dep, err := h.d.DeployPolicy(2, HookSocketSelect, "r0 = 0\nexit\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h.dev.Receive(pkt(uint64(i), 1000, ports[i%len(ports)], nil))
	}
	h.Eng.Run()
	links = h.d.Links()
	if len(links) != 1 || links[0].Runs != 4 {
		t.Errorf("three-port deployment lists %+v, want one row with 4 runs", links)
	}
	var insns uint64
	for _, l := range links {
		insns += l.Insns
	}
	if want := dep.Program().Stats().InsnsExecuted; insns != want || want != 8 {
		t.Fatalf("Σ Insns over rows = %d, program executed %d (want 8)", insns, want)
	}
}

// TestDispatcherSlotsAreReused: a closed deployment gives its dispatcher
// slot back. Tenant A deploys and is revoked at xdp_skb 100 times beside
// tenant B, whose every datagram keeps reaching B's slot program; then a
// third tenant still finds a slot.
func TestDispatcherSlotsAreReused(t *testing.T) {
	h := newHost(t, 1, 0)
	for app := uint32(1); app <= 3; app++ {
		port := uint16(8999 + app)
		h.d.RegisterApp(app, 1000+app, port)
		h.stack.NewUDPSocket(port, app, "w")
	}
	if _, err := h.d.DeployPolicy(2, HookXDPSkb, countXDP, nil); err != nil {
		t.Fatal(err)
	}
	seen := h.d.App(2).Maps()["xdp_seen"]
	for i := 0; i < 100; i++ {
		if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r0 = PASS\nexit\n", nil); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := h.d.RevokeApp(1); err != nil {
			t.Fatal(err)
		}
		h.dev.Receive(pkt(uint64(i), 1000, 9001, nil))
		h.Eng.Run()
		if got, _ := seen.LookupUint64(0); got != uint64(i+1) {
			t.Fatalf("cycle %d: B's slot program counted %d datagrams, want %d", i, got, i+1)
		}
	}
	if _, err := h.d.DeployPolicy(3, HookXDPSkb, "r0 = PASS\nexit\n", nil); err != nil {
		t.Fatalf("third tenant after 100 cycles: %v", err)
	}
}
