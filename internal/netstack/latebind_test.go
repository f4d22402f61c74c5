package netstack

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

func TestLateBindingSharedQueue(t *testing.T) {
	eng, dev, st := wired(t, 1)
	g := st.Group(9000, 1)
	var socks []*Socket
	for i := 0; i < 3; i++ {
		s, _ := st.NewUDPSocket(9000, 1, "w")
		socks = append(socks, s)
	}
	g.EnableLateBinding(16)
	if g.lateCap == 0 {
		t.Fatal("late binding not enabled")
	}
	for i := 0; i < 5; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if g.late.Len() != 5 {
		t.Fatalf("shared queue = %d", g.late.Len())
	}
	// Any socket pulls from the shared queue in FIFO order.
	p := socks[2].TryRecv()
	if p == nil || p.ID != 0 {
		t.Fatalf("latePop via socket: %+v", p)
	}
	if socks[0].TryRecv().ID != 1 {
		t.Fatal("FIFO order broken across executors")
	}
	if g.late.Len() != 3 {
		t.Fatalf("queue after pops = %d", g.late.Len())
	}
}

func TestLateBindingWakesOneWaiter(t *testing.T) {
	eng, dev, st := wired(t, 1)
	g := st.Group(9000, 1)
	s1, _ := st.NewUDPSocket(9000, 1, "w1")
	s2, _ := st.NewUDPSocket(9000, 1, "w2")
	g.EnableLateBinding(16)
	woken := 0
	s1.WaitRecv(func() { woken++ })
	s2.WaitRecv(func() { woken++ })
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if woken != 1 {
		t.Fatalf("one packet woke %d executors", woken)
	}
	// The woken executor drains it; the other waiter stays armed for the
	// next arrival.
	if got := s1.TryRecv(); got == nil {
		t.Fatal("woken executor found no work")
	}
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	if woken != 2 {
		t.Fatalf("second packet woke %d total", woken)
	}
}

func TestLateBindingOverflowDrops(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	g := st.Group(9000, 1)
	st.NewUDPSocket(9000, 1, "w")
	g.EnableLateBinding(2)
	for i := 0; i < 5; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if g.late.Len() != 2 {
		t.Fatalf("queue = %d", g.late.Len())
	}
	if st.Stats.SocketDrops != 3 || st.Stats.UDPDelivered != 2 || st.Queued() != 2 {
		t.Fatalf("socket drops = %d, delivered = %d, queued = %d", st.Stats.SocketDrops, st.Stats.UDPDelivered, st.Queued())
	}
}

func TestLateBindingPolicyStillGatesAdmission(t *testing.T) {
	// PASS/DROP verdicts still apply under late binding (admission
	// control); executor indices are ignored.
	eng, dev, st := wired(t, 1)
	g := st.Group(9000, 1)
	st.NewUDPSocket(9000, 1, "w")
	g.EnableLateBinding(16)
	drop := mustProg(t, "r0 = DROP\nexit\n")
	g.Hook().Set(drop)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	if g.late.Len() != 0 || st.Stats.PolicyDrops != 1 {
		t.Fatalf("DROP ignored under late binding: queued=%d drops=%d", g.late.Len(), st.Stats.PolicyDrops)
	}
	idx := mustProg(t, "r0 = 57\nexit\n") // out-of-range executor: ignored under late binding
	g.Hook().Set(idx)
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	if g.late.Len() != 0 {
		// Out-of-range verdicts are still no-executor errors before the
		// late queue; this matches early-binding semantics.
		t.Logf("note: out-of-range verdict dropped before late queue (no-exec=%d)", st.Stats.NoExecutorDrops)
	}
}

func TestEnableLateBindingValidation(t *testing.T) {
	g := NewReuseportGroup(&hook.Host{}, 9000, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	g.EnableLateBinding(0)
}

func mustProg(t *testing.T, src string) *ebpf.Program {
	t.Helper()
	return mustProgWith(t, src, nil)
}

// mustProgWith assembles, verifies and binds src with defines.
func mustProgWith(t *testing.T, src string, defines map[string]int64) *ebpf.Program {
	t.Helper()
	f, err := ebpf.Assemble(src, defines)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ebpf.Verify("t", f)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := v.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEnableLateBindingLosesNothing: switching a group to late binding
// twice would drop the first shared queue's datagrams uncounted, and
// switching while a member socket holds datagrams would strand them where
// TryRecv no longer reads. Both are modeling bugs and panic.
func TestEnableLateBindingLosesNothing(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng, dev, st := wired(t, 1)
	g := st.Group(9000, 1)
	st.NewUDPSocket(9000, 1, "w")
	g.EnableLateBinding(16)
	dev.Receive(mkPkt(1, 1, 9000, nil))
	eng.Run()
	mustPanic("second EnableLateBinding", func() { g.EnableLateBinding(16) })
	if g.late.Len() != 1 || st.Queued() != 1 {
		t.Fatalf("shared queue holds %d, stack counts %d queued; want 1", g.late.Len(), st.Queued())
	}

	eng, dev, st = wired(t, 1)
	g = st.Group(9000, 1)
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	dev.Receive(mkPkt(2, 1, 9000, nil))
	eng.Run()
	mustPanic("EnableLateBinding over a non-empty socket", func() { g.EnableLateBinding(16) })
	if p := sock.TryRecv(); p == nil || p.ID != 2 {
		t.Fatalf("early-bound datagram unreachable after the refused switch: %v", p)
	}
}
