package syrupd

import (
	"strings"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

type host struct {
	eng   *sim.Engine
	dev   *nic.NIC
	stack *netstack.Stack
	m     *kernel.Machine
	d     *Daemon
}

func newHost(t *testing.T, queues, cpus int) *host {
	t.Helper()
	eng := sim.New(1)
	dev, stack := netstack.Wire(eng, nic.Config{Queues: queues}, netstack.Config{})
	var m *kernel.Machine
	if cpus > 0 {
		m = kernel.New(eng, kernel.Config{NumCPUs: cpus})
	}
	return &host{eng: eng, dev: dev, stack: stack, m: m, d: New(eng, dev, stack, m)}
}

func pkt(id uint64, srcPort, dstPort uint16, payload []byte) *nic.Packet {
	return &nic.Packet{ID: id, SrcIP: 1, DstIP: 2, SrcPort: srcPort, DstPort: dstPort, Payload: payload}
}

func TestRegisterAppPortConflicts(t *testing.T) {
	h := newHost(t, 1, 0)
	if _, err := h.d.RegisterApp(1, 1000, 9000, 9001); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.RegisterApp(1, 1000, 9100); err == nil {
		t.Fatal("duplicate app id accepted")
	}
	if _, err := h.d.RegisterApp(2, 1001, 9001); err == nil {
		t.Fatal("port steal accepted")
	}
	if _, err := h.d.RegisterApp(2, 1001, 9002); err != nil {
		t.Fatal(err)
	}
}

func TestDeploySocketSelectPolicy(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	var socks []*netstack.Socket
	for i := 0; i < 3; i++ {
		s, _ := h.stack.NewUDPSocket(9000, 1, "w")
		socks = append(socks, s)
	}
	res, err := h.d.DeployBuiltin(1, HookSocketSelect, policy.NameRoundRobin,
		map[string]int64{"NUM_THREADS": 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceLines == 0 || res.Program == nil {
		t.Fatalf("deploy result incomplete: %+v", res)
	}
	for i := 0; i < 6; i++ {
		h.dev.Receive(pkt(uint64(i), 1, 9000, nil))
	}
	h.eng.Run()
	for i, s := range socks {
		if s.Len() != 2 {
			t.Fatalf("socket %d got %d", i, s.Len())
		}
	}
	// The policy's map is pinned for the app's uid.
	m, err := h.d.OpenMap("/syrup/1/rr_state", 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LookupUint64(0); v != 6 {
		t.Fatalf("rr counter = %d", v)
	}
	// Other uids cannot open it.
	if _, err := h.d.OpenMap("/syrup/1/rr_state", 2000, false); err == nil {
		t.Fatal("foreign uid opened a 0600 map")
	}
}

func TestDeployRejectsUnsafePolicy(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w")
	for name, unsafe := range map[string]string{
		"unchecked packet read": "r2 = *(u64 *)(r1 + 0)\nr0 = *(u64 *)(r2 + 0)\nexit\n",
		// r3 is 2 at run time (a 32-bit shift masks its count to 5 bits), so
		// the `r0 = r7` arm runs and reads a register nothing wrote. A
		// verifier that folded the shift to 0 pruned that arm unchecked.
		"uninitialized read behind a folded branch": "w3 = 1\nw3 <<= 33\nif r3 == 0 goto ok\nr0 = r7\nexit\nok:\nr0 = PASS\nexit\n",
	} {
		_, err := h.d.DeployPolicy(1, HookSocketSelect, unsafe, nil)
		if err == nil || !strings.Contains(err.Error(), "verifier") {
			t.Errorf("%s: deploy error %v, want a verifier rejection", name, err)
		}
		if links := h.d.Links(); len(links) != 0 {
			t.Errorf("%s: rejected deploy left links %+v", name, links)
		}
	}
}

func TestDeployToForeignGroupRejected(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	// The group on 9000 is actually owned by app 2 (misconfigured bind).
	h.stack.Group(9000, 2)
	_, err := h.d.DeployBuiltin(1, HookSocketSelect, policy.NameRoundRobin, nil)
	if err == nil || !strings.Contains(err.Error(), "belongs to app") {
		t.Fatalf("cross-app group attach not rejected: %v", err)
	}
}

func TestXDPDispatcherIsolation(t *testing.T) {
	// The core §4.3 guarantee: app 1 deploys a DROP-everything XDP policy;
	// app 2's traffic on another port must be untouched.
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.d.RegisterApp(2, 1001, 9001)
	s1, _ := h.stack.NewUDPSocket(9000, 1, "app1")
	s2, _ := h.stack.NewUDPSocket(9001, 2, "app2")

	if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r0 = DROP\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.dev.Receive(pkt(uint64(i), 1, 9000, nil))
		h.dev.Receive(pkt(uint64(100+i), 1, 9001, nil))
	}
	h.eng.Run()
	if s1.Len() != 0 {
		t.Fatalf("app 1's own packets not dropped: %d", s1.Len())
	}
	if s2.Len() != 5 {
		t.Fatalf("app 2 lost packets to app 1's policy: %d", s2.Len())
	}
	if h.stack.Stats.XSKDrops != 5 {
		t.Fatalf("xdp drops = %d", h.stack.Stats.XSKDrops)
	}
}

func TestXDPOffloadDispatcherIsolation(t *testing.T) {
	h := newHost(t, 2, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.d.RegisterApp(2, 1001, 9001)
	s1, _ := h.stack.NewUDPSocket(9000, 1, "app1")
	s2, _ := h.stack.NewUDPSocket(9001, 2, "app2")
	// App 1 steers everything to queue 1 on the NIC.
	if _, err := h.d.DeployPolicy(1, HookXDPOffload, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	h.dev.Receive(pkt(1, 1, 9000, nil))
	h.dev.Receive(pkt(2, 1, 9001, nil))
	h.eng.Run()
	if s1.Len() != 1 || s2.Len() != 1 {
		t.Fatalf("delivery: %d %d", s1.Len(), s2.Len())
	}
	if h.dev.Stats.OffloadRuns != 2 {
		t.Fatalf("offload runs = %d", h.dev.Stats.OffloadRuns)
	}
}

func TestTwoAppsIndependentPoliciesSameHook(t *testing.T) {
	h := newHost(t, 4, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.d.RegisterApp(2, 1001, 9001)
	h.stack.NewUDPSocket(9000, 1, "a1")
	h.stack.NewUDPSocket(9001, 2, "a2")
	// App 1: everything to queue 2; App 2: everything to queue 3.
	if _, err := h.d.DeployPolicy(1, HookXDPOffload, "r0 = 2\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.DeployPolicy(2, HookXDPOffload, "r0 = 3\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	var q1, q2 int = -1, -1
	p1, p2 := pkt(1, 1, 9000, nil), pkt(2, 1, 9001, nil)
	h.dev.Receive(p1)
	h.dev.Receive(p2)
	h.eng.Run()
	q1, q2 = p1.Queue, p2.Queue
	if q1 != 2 || q2 != 3 {
		t.Fatalf("steering: app1→q%d app2→q%d", q1, q2)
	}
}

func TestDeployRedeployReplacesProgram(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	s, _ := h.stack.NewUDPSocket(9000, 1, "w")
	if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r0 = DROP\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	h.dev.Receive(pkt(1, 1, 9000, nil))
	h.eng.Run()
	if s.Len() != 0 {
		t.Fatal("drop policy inactive")
	}
	// Redeploy PASS: traffic flows again (applications can update policies
	// at any time, §3.1).
	if _, err := h.d.DeployPolicy(1, HookXDPSkb, "r0 = PASS\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	h.dev.Receive(pkt(2, 1, 9000, nil))
	h.eng.Run()
	if s.Len() != 1 {
		t.Fatal("redeploy did not replace the program")
	}
}

func TestSharedMapsAcrossDeployments(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w")
	h.stack.NewUDPSocket(9000, 1, "w")
	// Token policy at XDP; the same tokens map pre-created via CreateMap.
	m, err := h.d.CreateMap(1, ebpf.MapSpec{Name: "tokens", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	m.UpdateUint64(0, 2)
	res, err := h.d.DeployBuiltin(1, HookXDPSkb, policy.NameToken, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Maps["tokens"] != m {
		t.Fatal("policy did not share the pre-created map")
	}
	// user 0 has 2 tokens: first two pass, third drops.
	payload := policy.EncodeHeader(policy.ReqGET, 0, 0, 1)
	for i := 0; i < 3; i++ {
		h.dev.Receive(pkt(uint64(i), 1, 9000, payload))
	}
	h.eng.Run()
	if h.stack.Stats.XSKDrops != 1 {
		t.Fatalf("token drops = %d, want 1", h.stack.Stats.XSKDrops)
	}
	if v, _ := m.LookupUint64(0); v != 0 {
		t.Fatalf("token balance = %d", v)
	}
}

func TestCreateMapErrors(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	spec := ebpf.MapSpec{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1}
	if _, err := h.d.CreateMap(9, spec); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := h.d.CreateMap(1, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.CreateMap(1, spec); err == nil {
		t.Fatal("duplicate map accepted")
	}
}

func TestDeployThreadPolicy(t *testing.T) {
	h := newHost(t, 1, 4)
	h.d.RegisterApp(1, 1000, 9000)
	agent, err := h.d.DeployThreadPolicy(1, &policy.FIFO{}, 3, []kernel.CPUID{1, 2}, ghost.Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 4; i++ {
		th := h.m.NewThread("w", 1, h.m.AffinityAll(), func(th *kernel.Thread) {
			th.Exec(10*sim.Microsecond, func() { done++; th.Exit() })
		})
		if err := agent.Register(th); err != nil {
			t.Fatal(err)
		}
		th.Wake()
	}
	h.eng.Run()
	if done != 4 {
		t.Fatalf("ghost ran %d/4 threads", done)
	}
	// Second thread policy for the same app fails.
	if _, err := h.d.DeployThreadPolicy(1, &policy.FIFO{}, 0, nil, ghost.Config{}); err == nil {
		t.Fatal("double thread policy accepted")
	}
	// Unknown app.
	if _, err := h.d.DeployThreadPolicy(9, &policy.FIFO{}, 0, nil, ghost.Config{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestDeployErrors(t *testing.T) {
	h := newHost(t, 1, 0)
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = PASS\nexit\n", nil); err == nil {
		t.Fatal("deploy for unknown app accepted")
	}
	h.d.RegisterApp(1, 1000, 9000)
	if _, err := h.d.DeployPolicy(1, HookThreadSched, "r0 = PASS\nexit\n", nil); err == nil {
		t.Fatal("packet deploy at thread hook accepted")
	}
	if _, err := h.d.DeployPolicy(1, Hook("bogus"), "r0 = PASS\nexit\n", nil); err == nil {
		t.Fatal("bogus hook accepted")
	}
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "syntax error here\n", nil); err == nil {
		t.Fatal("unparsable policy accepted")
	}
	// Socket select with no bound group.
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = PASS\nexit\n", nil); err == nil {
		t.Fatal("socket select with no groups accepted")
	}
	if _, err := h.d.DeployBuiltin(1, HookSocketSelect, "nope", nil); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

func TestParseHook(t *testing.T) {
	for _, s := range []string{"socket_select", "cpu_redirect", "xdp_drv", "xdp_skb", "xdp_offload", "thread_sched"} {
		if _, err := ParseHook(s); err != nil {
			t.Fatalf("ParseHook(%q): %v", s, err)
		}
	}
	if _, err := ParseHook("bogus"); err == nil {
		t.Fatal("bogus hook parsed")
	}
}

func TestCPURedirectDispatcher(t *testing.T) {
	h := newHost(t, 2, 0)
	h.d.RegisterApp(1, 1000, 9000)
	s, _ := h.stack.NewUDPSocket(9000, 1, "w")
	if _, err := h.d.DeployPolicy(1, HookCPURedirect, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	h.dev.Receive(pkt(1, 1, 9000, nil))
	h.eng.Run()
	if s.Len() != 1 {
		t.Fatal("cpu-redirected packet lost")
	}
}

func TestDeploySocketSelectToTCPGroup(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	g := h.stack.TCPGroup(9000, 1)
	l0, _ := g.AddListener("w0", 8, 16)
	l1, _ := g.AddListener("w1", 8, 16)
	// Send all connections to listener 1.
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h.dev.Receive(&nic.Packet{ID: uint64(i), SrcIP: 9, SrcPort: uint16(100 + i), DstPort: 9000, TCP: true, SYN: true})
	}
	h.eng.Run()
	n := 0
	for l1.TryAccept() != nil {
		n++
	}
	if n != 3 || l0.TryAccept() != nil {
		t.Fatalf("TCP connection scheduling via syrupd broken: l1=%d", n)
	}
	// Foreign TCP group rejected.
	h.d.RegisterApp(2, 1001, 9002)
	h.stack.TCPGroup(9002, 1) // owned by app 1 despite app 2's port
	if _, err := h.d.DeployPolicy(2, HookSocketSelect, "r0 = 0\nexit\n", nil); err == nil {
		t.Fatal("cross-app TCP group attach accepted")
	}
}
