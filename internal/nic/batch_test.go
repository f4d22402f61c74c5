package nic

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/sim"
)

// steerAll returns an offload program steering every packet to queue 0, so
// packets carry offload latency and park on the burst ring.
func steerAll(t *testing.T) *ebpf.Program {
	t.Helper()
	p, _, err := ebpf.AssembleAndLoad("steer0", "r0 = 0\nexit\n", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBurstDrainFullRing is the S1 regression: drain a completely full
// ring at Budget > 1 with the host consuming per packet. The original
// batched drain decremented inflight by burst length up front, so the
// host's own per-packet Consumed calls underflowed the ring and panicked.
func TestBurstDrainFullRing(t *testing.T) {
	eng := sim.New(1)
	const ringSize = 64
	var got []uint64
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: ringSize, Budget: 8}, nil)
	dev.SetBatchDeliver(func(q int, pkts []*Packet) {
		if len(pkts) > dev.Budget() {
			t.Fatalf("burst of %d exceeds budget %d", len(pkts), dev.Budget())
		}
		for _, pkt := range pkts {
			dev.Consumed(q)
			got = append(got, pkt.ID)
		}
	})
	dev.SetOffloadProgram(steerAll(t))

	// Fill the ring to capacity in one instant; one more must overflow.
	for i := 0; i < ringSize+1; i++ {
		dev.Receive(mkPkt(uint64(i), uint16(1000+i), nil))
	}
	if dev.Stats.DroppedRing != 1 {
		t.Fatalf("DroppedRing = %d, want 1", dev.Stats.DroppedRing)
	}
	eng.Run()

	if len(got) != ringSize {
		t.Fatalf("delivered %d of %d", len(got), ringSize)
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("delivery order broken at %d: got id %d", i, id)
		}
	}
	if dev.Inflight(0) != 0 {
		t.Fatalf("inflight = %d after full drain, want 0", dev.Inflight(0))
	}
}

// TestBurstDrainConsumesPerPacket checks that a host dropping part of a
// burst at admission (consuming the ring slot but going no further) leaves
// the ring accounting exact — the other half of S1.
func TestBurstDrainConsumesPerPacket(t *testing.T) {
	eng := sim.New(1)
	var kept int
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: 16, Budget: 4}, nil)
	dev.SetBatchDeliver(func(q int, pkts []*Packet) {
		for i := range pkts {
			dev.Consumed(q) // every packet occupies exactly one ring slot
			if i%2 == 0 {
				kept++
			}
		}
	})
	dev.SetOffloadProgram(steerAll(t))
	for i := 0; i < 8; i++ {
		dev.Receive(mkPkt(uint64(i), uint16(2000+i), nil))
	}
	eng.Run()
	if dev.Inflight(0) != 0 {
		t.Fatalf("inflight = %d, want 0", dev.Inflight(0))
	}
	if kept != 4 {
		t.Fatalf("kept = %d, want 4", kept)
	}
}

// TestBurstDeliveryInstantsMatchPerPacket asserts the timestamp-
// preservation invariant at the NIC layer: every packet is handed to the
// host at exactly the instant the per-packet path would have used.
func TestBurstDeliveryInstantsMatchPerPacket(t *testing.T) {
	run := func(budget int) map[uint64]sim.Time {
		eng := sim.New(7)
		at := make(map[uint64]sim.Time)
		var dev *NIC
		deliver := func(q int, pkt *Packet) {
			dev.Consumed(q)
			at[pkt.ID] = eng.Now()
		}
		dev = New(eng, Config{Queues: 2, RingSize: 128, Budget: budget}, deliver)
		if budget > 1 {
			dev.SetBatchDeliver(func(q int, pkts []*Packet) {
				for _, pkt := range pkts {
					deliver(q, pkt)
				}
			})
		}
		p, _, err := ebpf.AssembleAndLoad("hashmod", "r0 = PASS\nexit\n", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetOffloadProgram(p) // PASS keeps RSS but charges offload latency
		for i := 0; i < 200; i++ {
			pkt := mkPkt(uint64(i), uint16(3000+i%40), nil)
			eng.After(sim.Time(i*137), func() { dev.Receive(pkt) })
		}
		eng.Run()
		return at
	}
	ref := run(1)
	for _, budget := range []int{4, 64} {
		got := run(budget)
		if len(got) != len(ref) {
			t.Fatalf("budget %d delivered %d packets, want %d", budget, len(got), len(ref))
		}
		for id, want := range ref {
			if got[id] != want {
				t.Fatalf("budget %d: packet %d delivered at %d, want %d", budget, id, got[id], want)
			}
		}
	}
}

// TestPacketPoolRecycle covers the page_pool-style recycler: pooled
// packets recycle through Free, literal packets ignore it, and a double
// Free of a live pooled packet panics.
func TestPacketPoolRecycle(t *testing.T) {
	p := NewPacket()
	p.ID = 42
	p.Payload = append(p.HeaderBuf(), 1, 2, 3)
	if len(p.Bytes()) != 11 {
		t.Fatalf("wire length %d", len(p.Bytes()))
	}
	p.Free()

	lit := &Packet{ID: 7}
	lit.Free() // no-op, must not panic
	lit.Free()

	q := NewPacket()
	if q.ID != 0 || q.Payload != nil || len(q.Bytes()) != 8 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	q.Free()

	r := NewPacket()
	r.ID = 9
	r.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double Free of pooled packet did not panic")
		}
	}()
	r.Free()
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestZeroAllocBurstDrain gates the NIC's burst hot path: with pooled
// packets and the ring warm, receiving and draining a burst allocates
// nothing.
func TestZeroAllocBurstDrain(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under the race detector; the packet pool cannot stay warm")
	}
	eng := sim.New(1)
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: 256, Budget: 8}, nil)
	dev.SetBatchDeliver(func(q int, pkts []*Packet) {
		for _, pkt := range pkts {
			dev.Consumed(q)
			pkt.Free()
		}
	})
	dev.SetOffloadProgram(steerAll(t)) // offload latency parks packets on the ring
	burst := func() {
		for i := 0; i < 8; i++ {
			pkt := NewPacket()
			pkt.ID = uint64(i)
			pkt.SrcIP, pkt.DstIP = 0x0a000001, 0x0a000002
			pkt.SrcPort, pkt.DstPort = uint16(4000+i), 9000
			dev.Receive(pkt)
		}
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm pools and ring capacity
		burst()
	}
	if avg := testing.AllocsPerRun(200, burst); avg != 0 {
		t.Fatalf("burst drain: %v allocs/op, want 0", avg)
	}
}
