package netstack

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

func mkPkt(id uint64, srcPort, dstPort uint16, payload []byte) *nic.Packet {
	return &nic.Packet{ID: id, SrcIP: 1, DstIP: 2, SrcPort: srcPort, DstPort: dstPort, Payload: payload}
}

func wired(t *testing.T, queues int) (*sim.Engine, *nic.NIC, *Stack) {
	t.Helper()
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: queues})
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
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	var deliveredAt sim.Time
	sock.WaitRecv(func() { deliveredAt = eng.Now() })
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if want := skbAllocCost + protoCost; deliveredAt != want {
		t.Fatalf("delivered at %v, want %v (skb alloc + proto)", deliveredAt, want)
	}
}

func TestSoftirqSerializesPerQueue(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	for i := 0; i < 3; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if sock.Len() != 3 {
		t.Fatalf("delivered %d", sock.Len())
	}
	// Three packets, serialized on the one core: the stack finishes after
	// three packets' worth of skb alloc + proto.
	if want := 3 * (skbAllocCost + protoCost); eng.Now() != want {
		t.Fatalf("stack drained at %v, want %v", eng.Now(), want)
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
	prog := mustProg(t, rr)
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
	if runs := st.LookupGroup(9000).Hook().Stats().Runs; runs != 9 {
		t.Fatalf("policy runs = %d", runs)
	}
}

func TestSocketSelectPolicyDropAndOOB(t *testing.T) {
	eng, dev, st := wired(t, 1)
	st.NewUDPSocket(9000, 1, "w")
	drop := mustProg(t, "r0 = DROP\nexit\n")
	st.LookupGroup(9000).Hook().Set(drop)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if st.Stats.PolicyDrops != 1 {
		t.Fatalf("policy drops = %d", st.Stats.PolicyDrops)
	}
	oob := mustProg(t, "r0 = 17\nexit\n")
	st.LookupGroup(9000).Hook().Set(oob)
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	if st.Stats.NoExecutorDrops != 1 {
		t.Fatalf("no-executor drops = %d", st.Stats.NoExecutorDrops)
	}
}

func TestSocketOverflowDropsCounted(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	for i := 0; i < socketQueueCap+6; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if sock.Len() != socketQueueCap {
		t.Fatalf("socket holds %d, want %d", sock.Len(), socketQueueCap)
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
	return mustProgWith(t, src, map[string]int64{"NSOCKS": int64(n)})
}

func TestXDPNativeRedirectToXSK(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
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
	if deliveredAt != hook.RunCost {
		t.Fatalf("native XDP delivered at %v, want %v", deliveredAt, hook.RunCost)
	}
	if st.Stats.XSKDelivered != 1 {
		t.Fatalf("xsk stat = %d", st.Stats.XSKDelivered)
	}
}

func TestXDPGenericCostsMore(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	s := NewSocket(0, 1, 64, "xsk")
	st.RegisterXSK(9000, 0, s)
	setXDP(st, XDPGeneric, xskRedirectProg(t, 1))
	var deliveredAt sim.Time
	s.WaitRecv(func() { deliveredAt = eng.Now() })
	dev.Receive(mkPkt(1, 1, 9000, []byte{0}))
	eng.Run()
	// Generic: skb alloc + policy + copy.
	if want := skbAllocCost + hook.RunCost + xskCopyCost; deliveredAt != want {
		t.Fatalf("generic XDP delivered at %v, want %v", deliveredAt, want)
	}
}

func TestXDPPassContinuesUpTheStack(t *testing.T) {
	eng, dev, st := wired(t, 1)
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	pass := mustProg(t, "r0 = PASS\nexit\n")
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
	drop := mustProg(t, "r0 = DROP\nexit\n")
	setXDP(st, XDPNative, drop)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if st.Stats.XSKDrops != 1 {
		t.Fatalf("xsk drops = %d", st.Stats.XSKDrops)
	}
	oob := mustProg(t, "r0 = 9\nexit\n")
	setXDP(st, XDPNative, oob)
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	if st.Stats.NoExecutorDrops != 1 {
		t.Fatalf("no-executor drops = %d", st.Stats.NoExecutorDrops)
	}
}

func TestCPURedirectMovesProtocolProcessing(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 2})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	_ = sock
	// Redirect everything to softirq core 1.
	redir := mustProg(t, "r0 = 1\nexit\n")
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
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1, RingSize: 4096})
	st.NewUDPSocket(9000, 1, "w")
	for i := 0; i < backlogCap+15; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if st.Stats.BacklogDrops != 15 {
		t.Fatalf("backlog drops = %d, want 15", st.Stats.BacklogDrops)
	}
}

func TestGroupPortMismatchPanics(t *testing.T) {
	g := NewReuseportGroup(&hook.Host{}, 9000, 1)
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
// are admitted with XDP generic attached (skb alloc + policy + copy of
// softirq each); the detach
// fires after the first packet's softirq completion but before the
// second's. All four were charged the attached cost, only the first ran the
// program, and all four continue up the stack.
func TestXDPRevokeBetweenAdmissionAndCompletion(t *testing.T) {
	arrive := offloadLatency(t)
	soft := skbAllocCost + hook.RunCost + xskCopyCost
	eng := sim.New(3)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1, RingSize: 64})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	setXDP(st, XDPGeneric, mustProg(t, "r0 = PASS\nexit\n"))
	dev.Offload().Set(mustProg(t, "r0 = PASS\nexit\n"))
	// All four arrive at t=0 and reach the softirq core at arrive, behind
	// the offload stage.
	for i := 0; i < 4; i++ {
		dev.Receive(mkPkt(uint64(i), uint16(6000+i), 9000, nil))
	}
	// Softirq completions land at arrive + soft, + 2 soft, + 3 soft and
	// + 4 soft. The revoke falls between the first and the second.
	eng.CallAfter(arrive+soft+soft/2, func(any, uint64) { setXDP(st, XDPNone, nil) }, nil, 0)
	eng.Run()

	if runs := st.XDP().Stats().Runs; runs != 1 {
		t.Fatalf("XDP runs = %d, want exactly 1 (only the pre-revoke packet)", runs)
	}
	// Protocol processing serializes behind the softirq stage's busyUntil
	// (arrive + 4 soft), protoCost each.
	for id := 0; id < 4; id++ {
		w := arrive + 4*soft + sim.Time(id+1)*protoCost
		p := sock.TryRecv()
		if p == nil {
			t.Fatalf("delivered %d of 4", id)
		}
		if p.ID != uint64(id) || p.EnqueuedAt != w {
			t.Fatalf("delivery %d: packet %d enqueued at %d, want packet %d at %d", id, p.ID, p.EnqueuedAt, id, w)
		}
	}
	if st.Stats != (Stats{Processed: 4, UDPDelivered: 4}) {
		t.Fatalf("stats %+v, want 4 processed and delivered, no drops", st.Stats)
	}
}

// offloadLatency is how long a packet takes to clear an attached offload
// program and reach the softirq stage: the NIC's offload cost.
func offloadLatency(t *testing.T) sim.Time {
	t.Helper()
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	dev.Offload().Set(mustProg(t, "r0 = PASS\nexit\n"))
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	p := sock.TryRecv()
	if p == nil || p.SoftirqAt <= 0 {
		t.Fatal("offload probe packet not delivered after a positive delay")
	}
	return p.SoftirqAt
}

// TestZeroAllocDeliver gates the receive path end to end: with the
// device's own packets and the event pool and socket ring warm, carrying a packet
// through offload, softirq, XDP dispatch, protocol processing, and socket
// delivery allocates nothing.
func TestZeroAllocDeliver(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1, RingSize: 256})
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
