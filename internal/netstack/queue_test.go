package netstack

import (
	"math/rand"
	"runtime"
	"testing"

	"syrup/internal/hook"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

// ringOracle is the fixed circular buffer a socket and a late-binding
// group held before their queues became chains through the packets: cap
// slots preallocated, head indexing the oldest datagram, count the
// occupancy. It is the reference the differential test holds the chained
// queues to.
type ringOracle struct {
	slots           []*nic.Packet
	head, count     int
	drops, enqueued uint64
}

func newRingOracle(capacity int) *ringOracle {
	return &ringOracle{slots: make([]*nic.Packet, capacity)}
}

func (r *ringOracle) enqueue(p *nic.Packet) bool {
	if r.count >= len(r.slots) {
		r.drops++
		return false
	}
	slot := r.head + r.count
	if slot >= len(r.slots) {
		slot -= len(r.slots)
	}
	r.slots[slot] = p
	r.count++
	r.enqueued++
	return true
}

func (r *ringOracle) pop() *nic.Packet {
	if r.count == 0 {
		return nil
	}
	p := r.slots[r.head]
	r.slots[r.head] = nil
	if r.head++; r.head == len(r.slots) {
		r.head = 0
	}
	r.count--
	return p
}

// TestSocketQueueMatchesRingOracle drives seeded random Enqueue/TryRecv
// sequences through a reuseport group's sockets — early binding, or late
// binding through the shared queue — and through the old fixed rings side
// by side: bounds 1–8, queues driven into full-queue drops, and popped
// packets queued again, as MICA forwards a datagram from an AF_XDP socket
// to its home thread's ring. Every step must agree on the packet popped,
// every Len, Drops and Enqueued.
func TestSocketQueueMatchesRingOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(38))
	dev := nic.New(sim.New(1), nic.Config{}, func(int, *nic.Packet) {})
	for seq := 0; seq < 400; seq++ {
		bound := 1 + rnd.Intn(8)
		g := NewReuseportGroup(&hook.Host{}, 9000, 1)
		var socks []*Socket
		var rings []*ringOracle
		for i := 0; i < 1+rnd.Intn(3); i++ {
			s := NewSocket(9000, 1, bound, "w")
			g.AddSocket(s)
			socks = append(socks, s)
			rings = append(rings, newRingOracle(bound))
		}
		var late *ringOracle
		if seq%2 == 1 {
			lateBound := 1 + rnd.Intn(8)
			g.EnableLateBinding(lateBound)
			late = newRingOracle(lateBound)
		}
		var held []*nic.Packet // popped, to be queued again
		for step := 0; step < 64; step++ {
			i := rnd.Intn(len(socks))
			if rnd.Intn(5) < 3 { // enqueue-heavy, so queues fill and drop
				var p *nic.Packet
				if n := len(held); n > 0 && rnd.Intn(2) == 0 {
					p, held = held[n-1], held[:n-1]
				} else {
					p = dev.NewPacket()
					p.ID = uint64(step)
				}
				var got, want bool
				if late != nil {
					got, want = g.lateEnqueue(p), late.enqueue(p)
				} else {
					got, want = socks[i].Enqueue(p), rings[i].enqueue(p)
				}
				if got != want {
					t.Fatalf("seq %d step %d: enqueue = %v, oracle %v", seq, step, got, want)
				}
				if !got {
					p.Free()
				}
			} else {
				got := socks[i].TryRecv()
				want := late
				if want == nil {
					want = rings[i]
				}
				if w := want.pop(); got != w {
					t.Fatalf("seq %d step %d: socket %d popped %v, oracle %v", seq, step, i, got, w)
				}
				if got != nil && rnd.Intn(2) == 0 {
					held = append(held, got)
				} else if got != nil {
					got.Free()
				}
			}
			for j, s := range socks {
				r := rings[j]
				if s.Len() != r.count || s.Drops != r.drops || s.Enqueued != r.enqueued {
					t.Fatalf("seq %d step %d: socket %d len/drops/enqueued %d/%d/%d, oracle %d/%d/%d",
						seq, step, j, s.Len(), s.Drops, s.Enqueued, r.count, r.drops, r.enqueued)
				}
			}
			if late != nil && g.late.Len() != late.count {
				t.Fatalf("seq %d step %d: shared queue len %d, oracle %d", seq, step, g.late.Len(), late.count)
			}
		}
		for _, s := range socks {
			for p := s.TryRecv(); p != nil; p = s.TryRecv() {
				held = append(held, p)
			}
		}
		for _, p := range held {
			p.Free()
		}
	}
}

// TestRedrivenPacketsAreAccepted replays captured packets into one world,
// abandons it with the packets still queued, and replays them into a
// fresh one, as the benchmark's datapath probe does on every repetition:
// the second world takes every packet, in order.
func TestRedrivenPacketsAreAccepted(t *testing.T) {
	eng := sim.New(1)
	var capture *nic.NIC
	var kept []*nic.Packet
	capture = nic.New(eng, nic.Config{}, func(q int, p *nic.Packet) {
		capture.Consumed(q)
		kept = append(kept, p)
	})
	for i := 0; i < 8; i++ {
		p := capture.NewPacket()
		p.ID, p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = uint64(i), 1, 2, 555, 9000
		capture.Receive(p)
	}
	eng.Run()
	for world := 0; world < 2; world++ {
		eng, dev, st := wired(t, 1)
		sock, _ := st.NewUDPSocket(9000, 1, "w")
		for _, p := range kept {
			dev.Receive(p)
		}
		eng.Run()
		if sock.Len() != len(kept) {
			t.Fatalf("world %d: socket holds %d of %d re-driven packets", world, sock.Len(), len(kept))
		}
	}
}

// TestZeroAllocSocket gates the softirq drain → socket hop: an enqueue and
// its receive, early or late bound, allocate nothing, and a socket's
// footprint does not depend on its bound.
func TestZeroAllocSocket(t *testing.T) {
	dev := nic.New(sim.New(1), nic.Config{}, func(int, *nic.Packet) {})
	pkts := make([]*nic.Packet, 8)
	for i := range pkts {
		pkts[i] = dev.NewPacket()
	}
	pair := func(s *Socket, enqueue func(*nic.Packet) bool) func() {
		return func() {
			for _, p := range pkts {
				if !enqueue(p) {
					t.Fatal("enqueue refused")
				}
			}
			for range pkts {
				if s.TryRecv() == nil {
					t.Fatal("receive found nothing")
				}
			}
		}
	}
	s := NewSocket(9000, 1, len(pkts), "w")
	if avg := testing.AllocsPerRun(200, pair(s, s.Enqueue)); avg != 0 {
		t.Fatalf("Enqueue+TryRecv: %v allocs/op, want 0", avg)
	}
	g := NewReuseportGroup(&hook.Host{}, 9000, 1)
	ls := NewSocket(9000, 1, 1, "w")
	g.AddSocket(ls)
	g.EnableLateBinding(len(pkts))
	if avg := testing.AllocsPerRun(200, pair(ls, g.lateEnqueue)); avg != 0 {
		t.Fatalf("late-binding enqueue+TryRecv: %v allocs/op, want 0", avg)
	}

	if small, huge := socketBytes(1), socketBytes(1<<20); small != huge {
		t.Fatalf("NewSocket allocates %d B at bound 1 and %d B at bound 1<<20", small, huge)
	}
}

var socketSink *Socket

// socketBytes is the fewest bytes NewSocket allocated over a few tries at
// the given bound (the minimum sheds a stray runtime allocation).
func socketBytes(bound int) uint64 {
	var least uint64
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		socketSink = NewSocket(9000, 1, bound, "w")
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; try == 0 || d < least {
			least = d
		}
	}
	return least
}

// BenchmarkSocketEnqueueRecv is the ledger's softirq drain → socket hop:
// one datagram enqueued on a socket and received from it.
func BenchmarkSocketEnqueueRecv(b *testing.B) {
	p := nic.New(sim.New(1), nic.Config{}, func(int, *nic.Packet) {}).NewPacket()
	s := NewSocket(9000, 1, 256, "w")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enqueue(p)
		s.TryRecv()
	}
}
