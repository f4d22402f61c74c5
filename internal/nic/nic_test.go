package nic

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/sim"
)

func mkPkt(id uint64, srcPort uint16, payload []byte) *Packet {
	return &Packet{ID: id, SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: srcPort, DstPort: 9000, Payload: payload}
}

func TestPacketBytesLayout(t *testing.T) {
	p := mkPkt(1, 0x1234, []byte{0xaa, 0xbb})
	b := p.Bytes()
	if len(b) != 10 {
		t.Fatalf("wire length %d", len(b))
	}
	if b[0] != 0x12 || b[1] != 0x34 {
		t.Fatalf("src port bytes %x %x", b[0], b[1])
	}
	if b[2] != 0x23 || b[3] != 0x28 { // 9000 = 0x2328
		t.Fatalf("dst port bytes %x %x", b[2], b[3])
	}
	if b[8] != 0xaa || b[9] != 0xbb {
		t.Fatal("payload misplaced")
	}
	// Cached: mutations persist.
	b[8] = 0xcc
	if p.Bytes()[8] != 0xcc {
		t.Fatal("wire view not cached")
	}
}

func TestRSSHashStability(t *testing.T) {
	a := mkPkt(1, 100, nil)
	b := mkPkt(2, 100, nil)
	if a.RSSHash() != b.RSSHash() {
		t.Fatal("same 5-tuple hashed differently")
	}
	c := mkPkt(3, 101, nil)
	if a.RSSHash() == c.RSSHash() {
		t.Fatal("different flows hashed identically (exceedingly unlikely)")
	}
}

func TestRSSSpreadsAcrossQueues(t *testing.T) {
	eng := sim.New(1)
	got := map[int]int{}
	dev := New(eng, Config{Queues: 4}, func(q int, pkt *Packet) { got[q]++ })
	for i := 0; i < 400; i++ {
		dev.Receive(mkPkt(uint64(i), uint16(1000+i), nil))
	}
	eng.Run()
	// Each of 400 distinct flows should land on some queue; all 4 queues
	// should see a reasonable share.
	total := 0
	for q := 0; q < 4; q++ {
		if got[q] < 50 {
			t.Fatalf("queue %d got %d of 400 flows", q, got[q])
		}
		total += got[q]
	}
	if total != 400 {
		t.Fatalf("delivered %d", total)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: 8}, func(q int, pkt *Packet) { delivered++ })
	// The host never consumes: after 8 packets the ring is full.
	for i := 0; i < 20; i++ {
		dev.Receive(mkPkt(uint64(i), 100, nil))
	}
	eng.Run()
	if dev.Stats.DroppedRing != 12 {
		t.Fatalf("ring drops = %d, want 12", dev.Stats.DroppedRing)
	}
	if delivered != 8 {
		t.Fatalf("delivered = %d, want 8", delivered)
	}
	// Consuming frees space.
	for i := 0; i < 8; i++ {
		dev.Consumed(0)
	}
	dev.Receive(mkPkt(99, 100, nil))
	eng.Run()
	if delivered != 9 {
		t.Fatalf("post-consume delivery failed: %d", delivered)
	}
}

func TestOffloadProgramSteersQueues(t *testing.T) {
	eng := sim.New(1)
	var gotQueue []int
	dev := New(eng, Config{Queues: 4}, func(q int, pkt *Packet) { gotQueue = append(gotQueue, q) })
	// Steer by first payload byte (a MICA-style key-hash steering policy).
	prog := ebpf.MustLoad("steer", []ebpf.Instruction{
		ebpf.Ldx(8, ebpf.R2, ebpf.R1, ebpf.CtxOffData),
		ebpf.Ldx(8, ebpf.R3, ebpf.R1, ebpf.CtxOffDataEnd),
		ebpf.MovReg(ebpf.R4, ebpf.R2),
		ebpf.ALUImm(ebpf.ALUAdd, ebpf.R4, 9),
		ebpf.JmpReg(ebpf.JmpGt, ebpf.R4, ebpf.R3, 3),
		ebpf.Ldx(1, ebpf.R0, ebpf.R2, 8),
		ebpf.ALUImm(ebpf.ALUMod, ebpf.R0, 4),
		ebpf.Exit(),
		ebpf.MovImm(ebpf.R0, -1), // PASS
		ebpf.Exit(),
	}, ebpf.LoadOptions{})
	dev.Offload().Set(prog)
	for i := 0; i < 8; i++ {
		dev.Receive(mkPkt(uint64(i), 100, []byte{byte(i)}))
	}
	eng.Run()
	if len(gotQueue) != 8 {
		t.Fatalf("delivered %d", len(gotQueue))
	}
	for i, q := range gotQueue {
		if q != i%4 {
			t.Fatalf("packet %d steered to queue %d, want %d", i, q, i%4)
		}
	}
	if dev.Stats.OffloadRuns != 8 {
		t.Fatalf("offload runs = %d", dev.Stats.OffloadRuns)
	}
}

func TestOffloadDropAndOutOfRange(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	dev := New(eng, Config{Queues: 2}, func(q int, pkt *Packet) { delivered++ })
	drop := ebpf.MustLoad("drop", []ebpf.Instruction{
		ebpf.MovImm(ebpf.R0, -2), // DROP
		ebpf.Exit(),
	}, ebpf.LoadOptions{})
	dev.Offload().Set(drop)
	dev.Receive(mkPkt(1, 100, nil))
	eng.Run()
	if delivered != 0 || dev.Stats.DroppedByXDP != 1 {
		t.Fatalf("drop verdict ignored: delivered=%d drops=%d", delivered, dev.Stats.DroppedByXDP)
	}
	oob := ebpf.MustLoad("oob", []ebpf.Instruction{
		ebpf.MovImm(ebpf.R0, 99),
		ebpf.Exit(),
	}, ebpf.LoadOptions{})
	dev.Offload().Set(oob)
	dev.Receive(mkPkt(2, 100, nil))
	eng.Run()
	if delivered != 0 || dev.Stats.DroppedByXDP != 2 {
		t.Fatalf("out-of-range verdict not dropped: delivered=%d", delivered)
	}
}

func TestOffloadFaultFailsOpenAndCounts(t *testing.T) {
	eng := sim.New(1)
	delivered := 0
	dev := New(eng, Config{Queues: 4}, func(q int, pkt *Packet) { delivered++ })
	// A verified program that tail-calls itself past MaxTailCalls: the
	// stand-in for a runtime fault on the NIC.
	pa := ebpf.MustNewMap(ebpf.MapSpec{Name: "pa", Type: ebpf.MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1})
	tb := ebpf.NewMapTable()
	insns := append(ebpf.LoadMapFD(ebpf.R2, tb.Register(pa)),
		ebpf.MovImm(ebpf.R3, 0),
		ebpf.Call(ebpf.HelperTailCall),
		ebpf.MovImm(ebpf.R0, -1),
		ebpf.Exit(),
	)
	faulty, err := ebpf.Load("faulty", insns, ebpf.LoadOptions{MapTable: tb})
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.UpdateProg(0, faulty); err != nil {
		t.Fatal(err)
	}
	dev.Offload().Set(faulty)
	p := mkPkt(1, 100, nil)
	rssQueue := dev.rssTable[p.RSSHash()%uint32(len(dev.rssTable))]
	dev.Receive(p)
	eng.Run()
	// Fail open: the packet is delivered on the RSS-chosen queue...
	if delivered != 1 || p.Queue != rssQueue {
		t.Fatalf("fault did not fail open to RSS: delivered=%d queue=%d want %d", delivered, p.Queue, rssQueue)
	}
	// ...but the fault is counted, not silently read as PASS.
	if dev.Stats.OffloadFaults != 1 || dev.Stats.DroppedByXDP != 0 {
		t.Fatalf("fault accounting: %+v", dev.Stats)
	}
	if st := dev.Offload().Stats(); st.Faults != 1 {
		t.Fatalf("hook point faults = %d", st.Faults)
	}
}

func TestOffloadedMapLatency(t *testing.T) {
	eng := sim.New(1)
	dev := New(eng, Config{Queues: 1, HostMapRTT: 25 * sim.Microsecond}, func(int, *Packet) {})
	m := ebpf.MustNewMap(ebpf.MapSpec{Name: "m", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	om := dev.OffloadMap(m)
	var wroteAt, readAt sim.Time
	om.UpdateUint64(0, 42, func(err error) {
		if err != nil {
			t.Errorf("update: %v", err)
		}
		wroteAt = eng.Now()
		om.LookupUint64(0, func(v uint64, ok bool) {
			if !ok || v != 42 {
				t.Errorf("lookup got %d %v", v, ok)
			}
			readAt = eng.Now()
		})
	})
	eng.Run()
	if wroteAt != 25*sim.Microsecond || readAt != 50*sim.Microsecond {
		t.Fatalf("offloaded map RTTs: write %v read %v", wroteAt, readAt)
	}
	// NIC-side access is immediate.
	if v, _ := m.LookupUint64(0); v != 42 {
		t.Fatal("inner map view inconsistent")
	}
}

func TestConsumedUnderflowPanics(t *testing.T) {
	eng := sim.New(1)
	dev := New(eng, Config{Queues: 1}, func(int, *Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Consumed on empty ring did not panic")
		}
	}()
	dev.Consumed(0)
}

// steerAll returns an offload program steering every packet to queue 0, so
// every packet pays the offload engine's latency before the host sees it.
func steerAll(t *testing.T) *ebpf.Program {
	t.Helper()
	p, _, err := ebpf.AssembleAndLoad("steer0", "r0 = 0\nexit\n", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBurstDrainFullRing fills a ring to capacity in one instant behind an
// offload program, with the host consuming per packet: the one arrival past
// capacity is the only drop, every accepted packet is handed over in
// arrival order at arrival + OffloadCost, and the ring accounting returns
// to zero.
func TestBurstDrainFullRing(t *testing.T) {
	eng := sim.New(1)
	const (
		ringSize = 64
		arrival  = sim.Time(1000)
		offload  = sim.Time(500)
	)
	delivered := 0
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: ringSize, OffloadCost: offload}, func(q int, pkt *Packet) {
		if now := eng.Now(); now != arrival+offload || pkt.ID != uint64(delivered) {
			t.Fatalf("delivery %d: packet %d at %d, want packet %d at %d", delivered, pkt.ID, now, delivered, arrival+offload)
		}
		dev.Consumed(q)
		delivered++
	})
	dev.Offload().Set(steerAll(t))

	eng.CallAfter(arrival, func(any, uint64) {
		for i := 0; i < ringSize+1; i++ {
			dev.Receive(mkPkt(uint64(i), uint16(1000+i), nil))
		}
		if dev.Stats.DroppedRing != 1 {
			t.Fatalf("DroppedRing = %d, want 1", dev.Stats.DroppedRing)
		}
	}, nil, 0)
	eng.Run()

	if delivered != ringSize {
		t.Fatalf("delivered %d of %d", delivered, ringSize)
	}
	if dev.inflight[0] != 0 {
		t.Fatalf("inflight = %d after full drain, want 0", dev.inflight[0])
	}
}

// TestBurstDrainConsumesPerPacket checks that a host dropping every other
// packet at admission (consuming the ring slot but going no further)
// leaves the ring accounting exact.
func TestBurstDrainConsumesPerPacket(t *testing.T) {
	eng := sim.New(1)
	var kept int
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: 16}, func(q int, pkt *Packet) {
		dev.Consumed(q) // every packet occupies exactly one ring slot
		if pkt.ID%2 == 0 {
			kept++
		}
	})
	dev.Offload().Set(steerAll(t))
	for i := 0; i < 8; i++ {
		dev.Receive(mkPkt(uint64(i), uint16(2000+i), nil))
	}
	eng.Run()
	if dev.inflight[0] != 0 {
		t.Fatalf("inflight = %d, want 0", dev.inflight[0])
	}
	if kept != 4 {
		t.Fatalf("kept = %d, want 4", kept)
	}
}

// freePackets counts the packets on dev's free list.
func freePackets(dev *NIC) int {
	n := 0
	for p := dev.free; p != nil; p = p.next {
		n++
	}
	return n
}

// TestPacketPoolRecycle covers the device's packet free list: device
// packets recycle through Free, literal packets ignore it, and a double
// Free of a live device packet panics.
func TestPacketPoolRecycle(t *testing.T) {
	dev := New(sim.New(1), Config{}, func(int, *Packet) {})
	p := dev.NewPacket()
	p.ID = 42
	p.Payload = append(p.HeaderBuf(), 1, 2, 3)
	if len(p.Bytes()) != 11 {
		t.Fatalf("wire length %d", len(p.Bytes()))
	}
	p.Free()

	lit := &Packet{ID: 7}
	lit.Free() // no-op, must not panic
	lit.Free()

	q := dev.NewPacket()
	if q != p || q.ID != 0 || q.Payload != nil || len(q.Bytes()) != 8 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	q.Free()
	// A view larger than the inline storage goes to the heap, survives the
	// recycle, and is rebuilt into by the next request that needs it.
	q = dev.NewPacket()
	q.Payload = make([]byte, 100)
	big := q.Bytes()
	if len(big) != 108 {
		t.Fatalf("wire length %d", len(big))
	}
	q.Free()
	if q = dev.NewPacket(); q != p {
		t.Fatal("free list is not LIFO")
	}
	q.Payload = make([]byte, 60)
	if b := q.Bytes(); len(b) != 68 || &b[0] != &big[0] {
		t.Fatalf("recycled packet did not rebuild into its heap view (len %d)", len(b))
	}
	q.Free()

	r := dev.NewPacket()
	r.ID = 9
	r.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double Free of device packet did not panic")
		}
	}()
	r.Free()
}

// TestPacketReturnsToIssuingNIC: whoever frees a packet — a stack, an app,
// the other device's drop path — it goes back to the free list of the
// device that issued it, and a device that runs dry grows by one slab.
func TestPacketReturnsToIssuingNIC(t *testing.T) {
	eng := sim.New(1)
	a := New(eng, Config{}, func(int, *Packet) {})
	// b's ring holds one packet, so it drops (and frees) the rest.
	b := New(eng, Config{RingSize: 1}, func(int, *Packet) {})
	if freePackets(a) != packetSlab || freePackets(b) != packetSlab {
		t.Fatalf("pre-fill: %d and %d packets, want %d each", freePackets(a), freePackets(b), packetSlab)
	}
	var fromA, fromB []*Packet
	for i := 0; i < 10; i++ {
		fromA = append(fromA, a.NewPacket())
		fromB = append(fromB, b.NewPacket())
	}
	if freePackets(a) != packetSlab-10 || freePackets(b) != packetSlab-10 {
		t.Fatalf("after 10 takes each: %d and %d free", freePackets(a), freePackets(b))
	}
	// Interleaved frees, a's packets freed by b's drop path among them.
	for i := 0; i < 10; i++ {
		if i < 5 {
			b.Receive(fromA[i]) // i == 0 is kept on the ring, 1..4 are dropped
		} else {
			fromA[i].Free()
		}
		if i%2 == 0 {
			fromB[i].Free()
		}
	}
	if got, want := freePackets(a), packetSlab-1; got != want {
		t.Fatalf("issuer a has %d free packets, want %d (one still on b's ring)", got, want)
	}
	if got, want := freePackets(b), packetSlab-5; got != want {
		t.Fatalf("issuer b has %d free packets, want %d", got, want)
	}
	if b.Stats.DroppedRing != 4 {
		t.Fatalf("b dropped %d, want 4", b.Stats.DroppedRing)
	}
	// Running dry adds exactly one slab.
	for freePackets(b) > 0 {
		b.NewPacket()
	}
	b.NewPacket()
	if got := freePackets(b); got != packetSlab-1 {
		t.Fatalf("after growing: %d free, want %d", got, packetSlab-1)
	}
}

// TestZeroAllocReceive gates the NIC's hot path: with the device's own
// packets and the event pool warm, receiving a packet through the offload
// program and handing it to the host allocates nothing.
func TestZeroAllocReceive(t *testing.T) {
	eng := sim.New(1)
	var dev *NIC
	dev = New(eng, Config{Queues: 1, RingSize: 256}, func(q int, pkt *Packet) {
		dev.Consumed(q)
		pkt.Free()
	})
	dev.Offload().Set(steerAll(t))
	receive := func() {
		for i := 0; i < 8; i++ {
			pkt := dev.NewPacket()
			pkt.ID = uint64(i)
			pkt.SrcIP, pkt.DstIP = 0x0a000001, 0x0a000002
			pkt.SrcPort, pkt.DstPort = uint16(4000+i), 9000
			dev.Receive(pkt)
		}
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm the event pool
		receive()
	}
	if avg := testing.AllocsPerRun(200, receive); avg != 0 {
		t.Fatalf("receive: %v allocs/op, want 0", avg)
	}
}
