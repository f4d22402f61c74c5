package netstack

// Fault-path regressions for the receive path: a verdict-bearing redirect
// naming a dead AF_XDP socket must never deliver (stale-executor audit),
// and a chaos plan's injector must drop/fall open at the documented sites
// without disturbing anything else.

import (
	"testing"

	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

// TestXDPRedirectToDeadXSK is the stale-executor audit: an XDP program
// whose verdict names a closed AF_XDP socket must fall to a
// missing-executor drop, not enqueue into the dead socket's queue.
func TestXDPRedirectToDeadXSK(t *testing.T) {
	eng := sim.New(1)
	dev, st := Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 1})
	var xsks []*Socket
	for i := 0; i < 2; i++ {
		s := NewSocket(0, 1, 64, "xsk")
		st.RegisterXSK(9000, 0, s)
		xsks = append(xsks, s)
	}
	setXDP(st, XDPNative, xskRedirectProg(t, 2))

	// First delivery lands: socket 1 is alive.
	dev.Receive(mkPkt(1, 1, 9000, []byte{1}))
	eng.Run()
	if xsks[1].Len() != 1 || st.Stats.XSKDelivered != 1 {
		t.Fatalf("live delivery: len=%d delivered=%d", xsks[1].Len(), st.Stats.XSKDelivered)
	}

	// The executor dies; the same verdict must now drop as no-executor.
	xsks[1].closed = true
	dev.Receive(mkPkt(2, 1, 9000, []byte{1}))
	eng.Run()
	if xsks[1].Len() != 1 {
		t.Fatalf("dead socket received a packet: len=%d", xsks[1].Len())
	}
	if xsks[1].Drops != 0 {
		t.Fatalf("drop charged to the dead socket, want stack-level no-executor")
	}
	if st.Stats.NoExecutorDrops != 1 {
		t.Fatalf("no-executor drops = %d, want 1", st.Stats.NoExecutorDrops)
	}
	if st.Stats.XSKDelivered != 1 {
		t.Fatalf("xsk delivered = %d, want still 1", st.Stats.XSKDelivered)
	}

	// Other executors are unaffected.
	dev.Receive(mkPkt(3, 1, 9000, []byte{0}))
	eng.Run()
	if xsks[0].Len() != 1 {
		t.Fatalf("live sibling did not receive: len=%d", xsks[0].Len())
	}
	// Every processed packet ended as one drop cause or one delivery.
	if s := st.Stats; s.Processed != s.TotalDrops()-s.BacklogDrops+s.XSKDelivered+s.UDPDelivered {
		t.Fatalf("stack not conserved: %+v", s)
	}
}

func TestInjectedSKBAllocDrops(t *testing.T) {
	eng := sim.New(1)
	plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSKBAlloc, Every: 2}}}
	dev, st := Wire(&hook.Host{Eng: eng, Faults: plan.Compile(1, eng.Now)}, nic.Config{Queues: 1})
	sock, _ := st.NewUDPSocket(9000, 1, "w")

	for i := 0; i < 6; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()
	if st.Stats.BacklogDrops != 3 {
		t.Fatalf("backlog drops = %d, want 3", st.Stats.BacklogDrops)
	}
	if sock.Len() != 3 {
		t.Fatalf("delivered = %d, want 3", sock.Len())
	}
}

// TestInjectedSocketSelectFallsOpen checks an injected hook fault falls
// back to hash selection with the fault counted. (Arming a live host, late
// groups included, is the facade's TestHostArmsEveryLayer.)
func TestInjectedSocketSelectFallsOpen(t *testing.T) {
	eng := sim.New(1)
	plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 2}}}
	dev, st := Wire(&hook.Host{Eng: eng, Faults: plan.Compile(1, eng.Now)}, nic.Config{Queues: 1})

	s0, _ := st.NewUDPSocket(9000, 1, "w0")
	s1, _ := st.NewUDPSocket(9000, 1, "w1")
	// Policy pins everything to executor 1.
	steer := mustProg(t, "r0 = 1\nexit\n")
	g := st.LookupGroup(9000)
	g.Hook().Set(steer)

	for i := 0; i < 4; i++ {
		dev.Receive(mkPkt(uint64(i), 1, 9000, nil))
	}
	eng.Run()

	st1 := g.Hook().Stats()
	if st1.Runs != 4 || st1.Faults != 2 {
		t.Fatalf("hook stats = %+v, want Runs=4 Faults=2", st1)
	}
	// Every packet still delivered: faulted runs fall open to hash select.
	if s0.Len()+s1.Len() != 4 {
		t.Fatalf("delivered %d+%d, want 4 total", s0.Len(), s1.Len())
	}
	if s1.Len() < 2 {
		t.Fatalf("steered deliveries = %d, want ≥2 from the clean runs", s1.Len())
	}
}
