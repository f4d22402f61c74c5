package netstack

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

func mkPkt(id uint64, srcPort, dstPort uint16, payload []byte) *nic.Packet {
	return &nic.Packet{ID: id, SrcIP: 1, DstIP: 2, SrcPort: srcPort, DstPort: dstPort, Payload: payload}
}

func wired(t *testing.T, queues int) (*sim.Engine, *nic.NIC, *Stack) {
	t.Helper()
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: queues}, Config{})
	return eng, dev, st
}

func TestSocketEnqueueRecvWaiter(t *testing.T) {
	s := NewSocket(100, 1, 2, "s")
	if s.TryRecv() != nil {
		t.Fatal("recv on empty socket")
	}
	woken := false
	s.WaitRecv(func() { woken = true })
	p1 := mkPkt(1, 1, 100, nil)
	if !s.Enqueue(p1) || !woken {
		t.Fatal("enqueue did not wake waiter")
	}
	if s.Enqueue(mkPkt(2, 1, 100, nil)) != true {
		t.Fatal("second enqueue failed")
	}
	// Full now.
	if s.Enqueue(mkPkt(3, 1, 100, nil)) {
		t.Fatal("overfull enqueue succeeded")
	}
	if s.Drops != 1 {
		t.Fatalf("drops = %d", s.Drops)
	}
	if got := s.TryRecv(); got != p1 {
		t.Fatal("FIFO order broken")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSocketDoubleWaiterPanics(t *testing.T) {
	s := NewSocket(100, 1, 2, "s")
	s.WaitRecv(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("double waiter did not panic")
		}
	}()
	s.WaitRecv(func() {})
}

func TestVanillaDeliveryHashSelection(t *testing.T) {
	eng, dev, st := wired(t, 1)
	var socks []*Socket
	for i := 0; i < 4; i++ {
		s, idx := st.NewUDPSocket(9000, 1, "w")
		if idx != i {
			t.Fatalf("executor index %d, want %d", idx, i)
		}
		socks = append(socks, s)
	}
	// Same flow always lands on the same socket (hash steering).
	for i := 0; i < 10; i++ {
		dev.Receive(mkPkt(uint64(i), 555, 9000, nil))
	}
	eng.Run()
	nonEmpty := 0
	for _, s := range socks {
		if s.Len() == 10 {
			nonEmpty++
		} else if s.Len() != 0 {
			t.Fatalf("flow split across sockets: %d", s.Len())
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("hash steering placed one flow on %d sockets", nonEmpty)
	}
	// Distinct flows spread.
	for i := 0; i < 64; i++ {
		dev.Receive(mkPkt(uint64(100+i), uint16(1000+i), 9000, nil))
	}
	eng.Run()
	for i, s := range socks {
		if s.Len() == 0 {
			t.Fatalf("socket %d got nothing from 64 flows", i)
		}
	}
}

func TestSoftirqCostsAreCharged(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1},
		Config{SKBAllocCost: 300, ProtoCost: 1300})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	var deliveredAt sim.Time
	sock.WaitRecv(func() { deliveredAt = eng.Now() })
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if deliveredAt != 1600 {
		t.Fatalf("delivered at %v, want 1600ns (skb 300 + proto 1300)", deliveredAt)
	}
}

func TestSoftirqSerializesPerQueue(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1},
		Config{SKBAllocCost: 500, ProtoCost: 500})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	for i := 0; i < 3; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if sock.Len() != 3 {
		t.Fatalf("delivered %d", sock.Len())
	}
	// Three packets at 1us each, serialized: the stack finishes at 3us.
	if eng.Now() != 3000 {
		t.Fatalf("stack drained at %v, want 3000ns", eng.Now())
	}
}

func TestNoGroupDrops(t *testing.T) {
	eng, dev, st := wired(t, 1)
	dev.Receive(mkPkt(1, 1, 7777, nil)) // nobody listens on 7777
	eng.Run()
	if st.Stats.NoGroupDrops != 1 {
		t.Fatalf("no-group drops = %d", st.Stats.NoGroupDrops)
	}
}

func TestSocketSelectPolicyRoundRobin(t *testing.T) {
	eng, dev, st := wired(t, 1)
	var socks []*Socket
	for i := 0; i < 3; i++ {
		s, _ := st.NewUDPSocket(9000, 1, "w")
		socks = append(socks, s)
	}
	rr := `
.const NUM_THREADS 3
.map state array 4 8 1
  *(u32 *)(r10 - 4) = 0
  r1 = map(state)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r6 %= NUM_THREADS
  r0 = r6
  exit
pass:
  r0 = PASS
  exit
`
	prog, _, err := ebpf.AssembleAndLoad("rr", rr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.LookupGroup(9000).Hook().Set(prog)
	for i := 0; i < 9; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil)) // single flow!
	}
	eng.Run()
	for i, s := range socks {
		if s.Len() != 3 {
			t.Fatalf("socket %d got %d datagrams; round robin broken", i, s.Len())
		}
	}
	g := st.LookupGroup(9000)
	if g.PolicyRuns != 9 {
		t.Fatalf("policy runs = %d", g.PolicyRuns)
	}
}

func TestSocketSelectPolicyDropAndOOB(t *testing.T) {
	eng, dev, st := wired(t, 1)
	st.NewUDPSocket(9000, 1, "w")
	drop, _, _ := ebpf.AssembleAndLoad("drop", "r0 = DROP\nexit\n", nil, nil)
	st.LookupGroup(9000).Hook().Set(drop)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if st.Stats.PolicyDrops != 1 {
		t.Fatalf("policy drops = %d", st.Stats.PolicyDrops)
	}
	oob, _, _ := ebpf.AssembleAndLoad("oob", "r0 = 17\nexit\n", nil, nil)
	st.LookupGroup(9000).Hook().Set(oob)
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	if st.Stats.NoExecutorDrops != 1 {
		t.Fatalf("no-executor drops = %d", st.Stats.NoExecutorDrops)
	}
}

func TestSocketOverflowDropsCounted(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1}, Config{SocketQueueCap: 4})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	for i := 0; i < 10; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if sock.Len() != 4 {
		t.Fatalf("socket holds %d", sock.Len())
	}
	if st.Stats.SocketDrops != 6 {
		t.Fatalf("socket drops = %d", st.Stats.SocketDrops)
	}
}

func xskRedirectProg(t *testing.T, n int) *ebpf.Program {
	t.Helper()
	// Redirect to XSK socket (first payload byte % n).
	src := `
  r6 = *(u64 *)(r1 + 0)
  r7 = *(u64 *)(r1 + 8)
  r2 = r6
  r2 += 9
  if r2 > r7 goto pass
  r0 = *(u8 *)(r6 + 8)
  r0 %= NSOCKS
  exit
pass:
  r0 = PASS
  exit
`
	p, _, err := ebpf.AssembleAndLoad("xsk", src, map[string]int64{"NSOCKS": int64(n)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestXDPNativeRedirectToXSK(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1},
		Config{SKBAllocCost: 300, ProtoCost: 1300, PolicyRunCost: 700})
	var xsks []*Socket
	for i := 0; i < 2; i++ {
		s := NewSocket(0, 1, 64, "xsk")
		if got := st.RegisterXSK(9000, 0, s); got != i {
			t.Fatalf("xsk index %d", got)
		}
		xsks = append(xsks, s)
	}
	setXDP(st, XDPNative, xskRedirectProg(t, 2))
	var deliveredAt sim.Time
	xsks[1].WaitRecv(func() { deliveredAt = eng.Now() })
	dev.Receive(mkPkt(1, 1, 9000, []byte{1}))
	eng.Run()
	if xsks[1].Len() != 1 || xsks[0].Len() != 0 {
		t.Fatalf("xsk delivery wrong: %d %d", xsks[0].Len(), xsks[1].Len())
	}
	// Native mode: only the policy cost, no SKB alloc, no protocol work.
	if deliveredAt != 700 {
		t.Fatalf("native XDP delivered at %v, want 700ns", deliveredAt)
	}
	if st.Stats.XSKDelivered != 1 {
		t.Fatalf("xsk stat = %d", st.Stats.XSKDelivered)
	}
}

func TestXDPGenericCostsMore(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1},
		Config{SKBAllocCost: 300, ProtoCost: 1300, PolicyRunCost: 700, XSKCopyCost: 400})
	s := NewSocket(0, 1, 64, "xsk")
	st.RegisterXSK(9000, 0, s)
	setXDP(st, XDPGeneric, xskRedirectProg(t, 1))
	var deliveredAt sim.Time
	s.WaitRecv(func() { deliveredAt = eng.Now() })
	dev.Receive(mkPkt(1, 1, 9000, []byte{0}))
	eng.Run()
	// Generic: skb alloc + policy + copy = 1400ns.
	if deliveredAt != 1400 {
		t.Fatalf("generic XDP delivered at %v, want 1400ns", deliveredAt)
	}
}

func TestXDPPassContinuesUpTheStack(t *testing.T) {
	eng, dev, st := wired(t, 1)
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	pass, _, _ := ebpf.AssembleAndLoad("pass", "r0 = PASS\nexit\n", nil, nil)
	setXDP(st, XDPGeneric, pass)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if sock.Len() != 1 {
		t.Fatal("PASS packet did not reach the UDP socket")
	}
}

func TestXDPDropAndBadExecutor(t *testing.T) {
	eng, dev, st := wired(t, 1)
	st.NewUDPSocket(9000, 1, "w")
	drop, _, _ := ebpf.AssembleAndLoad("drop", "r0 = DROP\nexit\n", nil, nil)
	setXDP(st, XDPNative, drop)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if st.Stats.XSKDrops != 1 {
		t.Fatalf("xsk drops = %d", st.Stats.XSKDrops)
	}
	oob, _, _ := ebpf.AssembleAndLoad("oob", "r0 = 9\nexit\n", nil, nil)
	setXDP(st, XDPNative, oob)
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	if st.Stats.NoExecutorDrops != 1 {
		t.Fatalf("no-executor drops = %d", st.Stats.NoExecutorDrops)
	}
}

func TestCPURedirectMovesProtocolProcessing(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 2},
		Config{SKBAllocCost: 300, ProtoCost: 1000, PolicyRunCost: 200})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	_ = sock
	// Redirect everything to softirq core 1.
	redir, _, _ := ebpf.AssembleAndLoad("redir", "r0 = 1\nexit\n", nil, nil)
	st.CPURedirect().Set(redir)
	// Two packets on queue 0: ingress serializes on core 0, protocol on
	// core 1.
	for i := 0; i < 2; i++ {
		p := mkPkt(uint64(i), 42, 9000, nil) // same flow → same RSS queue
		dev.Receive(p)
	}
	eng.Run()
	if sock.Len() != 2 {
		t.Fatalf("delivered %d", sock.Len())
	}
	// core 1 did the protocol work: its busyUntil advanced.
	if st.cores[1].busyUntil == 0 {
		t.Fatal("protocol work did not move to core 1")
	}
}

func TestBacklogOverflow(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1, RingSize: 4096},
		Config{SKBAllocCost: 1000, ProtoCost: 1000, BacklogCap: 5})
	st.NewUDPSocket(9000, 1, "w")
	for i := 0; i < 20; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if st.Stats.BacklogDrops != 15 {
		t.Fatalf("backlog drops = %d, want 15", st.Stats.BacklogDrops)
	}
}

func TestGroupPortMismatchPanics(t *testing.T) {
	g := NewReuseportGroup(9000, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("port mismatch not caught")
		}
	}()
	g.AddSocket(NewSocket(9001, 1, 4, "bad"))
}

// TestXDPRevokeBetweenAdmissionAndCompletion: a policy revoke landing
// between a packet's softirq admission and its completion keeps the cost
// charged at admission and skips the program at completion. Four packets
// are admitted with XDP generic attached (1400 ns softirq each); the detach
// fires after the first packet's softirq completion but before the
// second's. All four were charged the attached cost, only the first ran the
// program, and all four continue up the stack.
func TestXDPRevokeBetweenAdmissionAndCompletion(t *testing.T) {
	eng := sim.New(3)
	dev, st := Wire(eng,
		nic.Config{Queues: 1, RingSize: 64, OffloadCost: 500},
		Config{SKBAllocCost: 300, ProtoCost: 1300, PolicyRunCost: 700, XSKCopyCost: 400})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	setXDP(st, XDPGeneric, mustProg(t, "r0 = PASS\nexit\n"))
	dev.Offload().Set(mustProg(t, "r0 = PASS\nexit\n"))
	// All four arrive at t=0 and reach the softirq core at t=500, behind
	// the 500 ns offload stage.
	for i := 0; i < 4; i++ {
		dev.Receive(mkPkt(uint64(i), uint16(6000+i), 9000, nil))
	}
	// Softirq completions land at 1900, 3300, 4700, 6100. The revoke at
	// t=2000 falls between the first and the second.
	eng.CallAfter(2000, func(any, uint64) { setXDP(st, XDPNone, nil) }, nil, 0)
	eng.Run()

	if runs := st.XDP().Stats().Runs; runs != 1 {
		t.Fatalf("XDP runs = %d, want exactly 1 (only the pre-revoke packet)", runs)
	}
	// Protocol processing serializes behind the softirq stage's busyUntil
	// (6100), 1300 ns each.
	want := []sim.Time{7400, 8700, 10000, 11300}
	for id, w := range want {
		p := sock.TryRecv()
		if p == nil {
			t.Fatalf("delivered %d of %d", id, len(want))
		}
		if p.ID != uint64(id) || p.EnqueuedAt != w {
			t.Fatalf("delivery %d: packet %d enqueued at %d, want packet %d at %d", id, p.ID, p.EnqueuedAt, id, w)
		}
	}
	if st.Stats != (Stats{Processed: 4}) {
		t.Fatalf("stats %+v, want 4 processed and no drops", st.Stats)
	}
}

// TestZeroAllocDeliver gates the receive path end to end: with the
// device's own packets and the event pool and socket ring warm, carrying a packet
// through offload, softirq, XDP dispatch, protocol processing, and socket
// delivery allocates nothing.
func TestZeroAllocDeliver(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1, RingSize: 256}, Config{})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	setXDP(st, XDPGeneric, mustProg(t, "r0 = PASS\nexit\n"))
	dev.Offload().Set(mustProg(t, "r0 = PASS\nexit\n"))
	deliver := func() {
		for i := 0; i < 8; i++ {
			pkt := dev.NewPacket()
			pkt.ID = uint64(i)
			pkt.SrcIP, pkt.DstIP = 1, 2
			pkt.SrcPort, pkt.DstPort = uint16(7000+i), 9000
			dev.Receive(pkt)
		}
		eng.Run()
		for p := sock.TryRecv(); p != nil; p = sock.TryRecv() {
			p.Free()
		}
	}
	for i := 0; i < 64; i++ { // warm the event pool and the socket ring
		deliver()
	}
	if avg := testing.AllocsPerRun(200, deliver); avg != 0 {
		t.Fatalf("deliver: %v allocs/op, want 0", avg)
	}
}

// setXDP attaches p at the XDP point the way syrupd does: the mode, then
// the program through the hook point (nil detaches).
func setXDP(st *Stack, mode XDPMode, p *ebpf.Program) {
	st.SetXDPMode(mode)
	st.XDP().Set(p)
}
