package syrupd

import (
	"testing"

	"syrup/internal/ghost"
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
		h.eng.CallAt(sim.Time(i)*sim.Microsecond, func(any, uint64) {
			h.dev.Receive(pkt(uint64(i), uint16(1000+i), 9000, nil))
		}, nil, 0)
	}
	// Swap both policies mid-stream, between two arrivals.
	h.eng.CallAt(100*sim.Microsecond+500*sim.Nanosecond, func(any, uint64) {
		if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
			t.Error(err)
		}
		if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r6 = 1\nr0 = PASS\nexit\n", nil); err != nil {
			t.Error(err)
		}
	}, nil, 0)
	h.eng.Run()

	// Conservation: every packet dispatched exactly once — no drop, no
	// double dispatch.
	if got := s0.Enqueued + s1.Enqueued; got != total {
		t.Fatalf("enqueued %d of %d (s0=%d s1=%d)", got, total, s0.Enqueued, s1.Enqueued)
	}
	if s0.Enqueued == 0 || s1.Enqueued == 0 {
		t.Fatalf("swap had no effect: s0=%d s1=%d", s0.Enqueued, s1.Enqueued)
	}
	g := h.stack.LookupGroup(9000)
	if g.PolicyDrops != 0 || g.NoExecutor != 0 || s0.Drops != 0 || s1.Drops != 0 {
		t.Fatalf("drops during swap: policy=%d noexec=%d s0=%d s1=%d",
			g.PolicyDrops, g.NoExecutor, s0.Drops, s1.Drops)
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
	sdev := storage.NewDevice(h.eng, storage.Config{Queues: 2, OnComplete: func(*storage.Request, sim.Time) { completed++ }})
	h.d.AttachStorage(sdev)

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
		h.eng.Run()
	}
	recvBatch(0)
	if s0.Enqueued != batch || s1.Enqueued != 0 {
		t.Fatalf("policy steering inactive: s0=%d s1=%d", s0.Enqueued, s1.Enqueued)
	}
	if sdev.Submit(&storage.Request{ID: 1, Tenant: 7, LBA: 0}) {
		t.Fatal("storage DROP policy inactive")
	}
	if sdev.Stats.RejectedByPolicy != 1 {
		t.Fatalf("storage rejects = %d", sdev.Stats.RejectedByPolicy)
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
	h.eng.Run()
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
	agent, err := h.d.DeployThreadPolicy(1, &policy.FIFO{}, 3, []kernel.CPUID{1, 2}, ghost.Config{})
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
	agent2, err := h.d.DeployThreadPolicy(1, &policy.FIFO{}, 3, []kernel.CPUID{1, 2}, ghost.Config{})
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
	h.eng.Run()
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
