package netstack

import (
	"encoding/binary"
	"testing"

	"syrup/internal/nic"
)

func synPkt(id uint64, srcPort uint16) *nic.Packet {
	return &nic.Packet{ID: id, SrcIP: 7, SrcPort: srcPort, DstPort: 9000, TCP: true, SYN: true}
}

// frame wraps bodies in the 2-byte length framing KCM parses.
func frame(bodies ...[]byte) []byte {
	var out []byte
	for _, b := range bodies {
		var ln [2]byte
		binary.LittleEndian.PutUint16(ln[:], uint16(len(b)))
		out = append(out, ln[:]...)
		out = append(out, b...)
	}
	return out
}

func dataPkt(id uint64, srcPort uint16, payload []byte) *nic.Packet {
	return &nic.Packet{ID: id, SrcIP: 7, SrcPort: srcPort, DstPort: 9000, TCP: true, Payload: payload}
}

func tcpFixture(t *testing.T, listeners int) (*TCPGroup, []*Listener, func(*nic.Packet)) {
	t.Helper()
	eng, dev, st := wired(t, 1)
	g := st.TCPGroup(9000, 1)
	var ls []*Listener
	for i := 0; i < listeners; i++ {
		l, idx := g.AddListener("w", 64, 256)
		if idx != i {
			t.Fatalf("listener index %d", idx)
		}
		ls = append(ls, l)
	}
	inject := func(p *nic.Packet) {
		dev.Receive(p)
		eng.Run()
	}
	return g, ls, inject
}

func TestTCPConnectionEstablishAndStickiness(t *testing.T) {
	g, ls, inject := tcpFixture(t, 3)
	inject(synPkt(1, 100))
	if g.Accepted != 1 {
		t.Fatalf("accepted = %d", g.Accepted)
	}
	// Find the accepting listener.
	var owner *Listener
	for _, l := range ls {
		if c := l.TryAccept(); c != nil {
			owner = l
			if c.SrcPort != 100 {
				t.Fatalf("conn src port %d", c.SrcPort)
			}
		}
	}
	if owner == nil {
		t.Fatal("no listener accepted")
	}
	// Data follows the connection to the accepting listener, framed into
	// requests.
	inject(dataPkt(2, 100, frame([]byte("req-a"), []byte("req-b"))))
	if owner.Requests.Len() != 2 {
		t.Fatalf("owner got %d requests", owner.Requests.Len())
	}
	for _, l := range ls {
		if l != owner && l.Requests.Len() != 0 {
			t.Fatal("request leaked to a non-owning listener")
		}
	}
	if got := owner.Requests.TryRecv(); string(got.Payload) != "req-a" {
		t.Fatalf("first request = %q", got.Payload)
	}
	// Duplicate SYN for the same flow is ignored.
	inject(synPkt(3, 100))
	if g.Accepted != 1 {
		t.Fatalf("retransmitted SYN accepted: %d", g.Accepted)
	}
	// Data for an unknown flow is dropped.
	inject(dataPkt(4, 999, frame([]byte("x"))))
	if g.BadSegments != 1 {
		t.Fatalf("bad segments = %d", g.BadSegments)
	}
}

func TestTCPPolicySchedulesConnections(t *testing.T) {
	g, ls, inject := tcpFixture(t, 3)
	// Round-robin connections across listeners.
	rr := mustProg(t, `
.map st array 4 8 1
  *(u32 *)(r10 - 4) = 0
  r1 = map(st)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r6 %= 3
  r0 = r6
  exit
pass:
  r0 = PASS
  exit
`)
	g.Hook().Set(rr)
	for i := 0; i < 6; i++ {
		inject(synPkt(uint64(i), uint16(100+i)))
	}
	for i, l := range ls {
		n := 0
		for l.TryAccept() != nil {
			n++
		}
		if n != 2 {
			t.Fatalf("listener %d accepted %d connections, want 2", i, n)
		}
	}
}

func TestTCPPolicyDropsSYN(t *testing.T) {
	g, _, inject := tcpFixture(t, 2)
	g.Hook().Set(mustProg(t, "r0 = DROP\nexit\n"))
	inject(synPkt(1, 100))
	if drops := g.Hook().Stats().Drops; g.Accepted != 0 || drops != 1 {
		t.Fatalf("accepted=%d drops=%d", g.Accepted, drops)
	}
	// Data for the refused connection bounces.
	inject(dataPkt(2, 100, frame([]byte("x"))))
	if g.BadSegments != 1 {
		t.Fatalf("bad segments = %d", g.BadSegments)
	}
}

func TestTCPSegmentReassembly(t *testing.T) {
	g, ls, inject := tcpFixture(t, 1)
	inject(synPkt(1, 100))
	ls[0].TryAccept()
	// One request split across three segments.
	whole := frame([]byte("hello-world"))
	inject(dataPkt(2, 100, whole[:3]))
	if ls[0].Requests.Len() != 0 {
		t.Fatal("partial request delivered")
	}
	inject(dataPkt(3, 100, whole[3:7]))
	inject(dataPkt(4, 100, whole[7:]))
	if ls[0].Requests.Len() != 1 {
		t.Fatalf("requests = %d", ls[0].Requests.Len())
	}
	if got := ls[0].Requests.TryRecv(); string(got.Payload) != "hello-world" {
		t.Fatalf("reassembled = %q", got.Payload)
	}
	if g.Requests != 1 {
		t.Fatalf("request count = %d", g.Requests)
	}
}

func TestKCMRequestLevelScheduling(t *testing.T) {
	// §6.4: with KCM, requests from ONE connection spread across workers.
	g, ls, inject := tcpFixture(t, 3)
	g.EnableKCM()
	g.Hook().Set(mustProg(t, `
.map st array 4 8 1
  *(u32 *)(r10 - 4) = 0
  r1 = map(st)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r6 %= 3
  r0 = r6
  exit
pass:
  r0 = PASS
  exit
`))
	inject(synPkt(1, 100)) // the SYN is also policy-scheduled (consumes index 0)
	var bodies [][]byte
	for i := 0; i < 6; i++ {
		bodies = append(bodies, []byte{byte('a' + i)})
	}
	inject(dataPkt(2, 100, frame(bodies...)))
	total := 0
	for i, l := range ls {
		n := l.Requests.Len()
		total += n
		if n == 0 {
			t.Fatalf("KCM left listener %d without requests", i)
		}
	}
	if total != 6 {
		t.Fatalf("delivered %d requests", total)
	}
}

func TestTCPAcceptQueueOverflow(t *testing.T) {
	eng, dev, st := wired(t, 1)
	g := st.TCPGroup(9000, 1)
	l, _ := g.AddListener("w", 2, 16)
	for i := 0; i < 5; i++ {
		dev.Receive(synPkt(uint64(i), uint16(100+i)))
	}
	eng.Run()
	if l.AcceptDrops != 3 {
		t.Fatalf("accept drops = %d", l.AcceptDrops)
	}
	if g.Accepted != 2 {
		t.Fatalf("accepted = %d", g.Accepted)
	}
}

func TestTCPAcceptWaiter(t *testing.T) {
	eng, dev, st := wired(t, 1)
	g := st.TCPGroup(9000, 1)
	l, _ := g.AddListener("w", 8, 16)
	woken := false
	l.WaitAccept(func() { woken = true })
	dev.Receive(synPkt(1, 100))
	eng.Run()
	if !woken {
		t.Fatal("accept waiter not woken")
	}
	if l.TryAccept() == nil {
		t.Fatal("no connection after wake")
	}
	// Double waiter panics.
	l.WaitAccept(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("double accept waiter accepted")
		}
	}()
	l.WaitAccept(func() {})
	_ = g
}

func TestTCPNoGroupDrops(t *testing.T) {
	eng, dev, st := wired(t, 1)
	dev.Receive(&nic.Packet{ID: 1, SrcIP: 1, SrcPort: 5, DstPort: 7777, TCP: true, SYN: true})
	eng.Run()
	if st.Stats.NoGroupDrops != 1 {
		t.Fatalf("no-group drops = %d", st.Stats.NoGroupDrops)
	}
}
