package netstack

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

func asmProg(t *testing.T, name, src string) *ebpf.Program {
	t.Helper()
	p, _, err := ebpf.AssembleAndLoad(name, src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drainEnqueueInstants empties the sockets and returns each delivered
// packet's ID → socket-enqueue instant.
func drainEnqueueInstants(socks []*Socket) map[uint64]sim.Time {
	at := make(map[uint64]sim.Time)
	for _, s := range socks {
		for p := s.TryRecv(); p != nil; p = s.TryRecv() {
			at[p.ID] = p.EnqueuedAt
		}
	}
	return at
}

// TestBatchStackInstantsMatchPerPacket asserts the tentpole invariant at
// the stack layer: with NIC bursts feeding DeliverBatch and the softirq
// FIFO draining through the vectorized XDP stage, every packet reaches its
// socket at exactly the instant the per-packet pipeline produces, at any
// batch size (sub-saturation — no queue ever fills here).
func TestBatchStackInstantsMatchPerPacket(t *testing.T) {
	run := func(batch int) (map[uint64]sim.Time, Stats) {
		eng := sim.New(9)
		dev, st := Wire(eng, nic.Config{Queues: 2, RingSize: 256, Budget: batch}, Config{Batch: batch})
		var socks []*Socket
		for i := 0; i < 4; i++ {
			s, _ := st.NewUDPSocket(9000, 1, "w")
			socks = append(socks, s)
		}
		st.SetXDP(XDPGeneric, asmProg(t, "pass", "r0 = PASS\nexit\n"))
		// Offload latency parks packets on the NIC ring, so same-instant
		// arrivals coalesce into real bursts.
		dev.SetOffloadProgram(asmProg(t, "off", "r0 = PASS\nexit\n"))
		id := uint64(0)
		for g := 0; g < 12; g++ {
			at := sim.Time(g * 911)
			for k := 0; k < 8; k++ {
				pkt := mkPkt(id, uint16(5000+id%32), 9000, []byte{byte(id)})
				id++
				eng.After(at, func() { dev.Receive(pkt) })
			}
		}
		eng.Run()
		return drainEnqueueInstants(socks), st.Stats
	}
	ref, refStats := run(1)
	if len(ref) != 96 {
		t.Fatalf("per-packet run delivered %d of 96", len(ref))
	}
	for _, batch := range []int{4, 64} {
		got, gotStats := run(batch)
		if gotStats != refStats {
			t.Fatalf("batch %d stats %+v, want %+v", batch, gotStats, refStats)
		}
		if len(got) != len(ref) {
			t.Fatalf("batch %d delivered %d packets, want %d", batch, len(got), len(ref))
		}
		for id, want := range ref {
			if got[id] != want {
				t.Fatalf("batch %d: packet %d enqueued at %d, want %d", batch, id, got[id], want)
			}
		}
	}
}

// TestXDPRevokeMidBurstChargesSnapshotCost is the S2 regression: a policy
// revoke landing in the middle of an admitted burst must not split the
// burst across two cost models. Four packets are admitted as one burst
// with XDP generic attached (1400 ns softirq each); the detach fires after
// the first packet's softirq completion but before the second's. All four
// were charged the attached cost at admission (the burst's snapshot), only
// the first actually ran the program, and every instant matches the
// per-packet pipeline exactly.
func TestXDPRevokeMidBurstChargesSnapshotCost(t *testing.T) {
	run := func(batch int) (map[uint64]sim.Time, uint64, Stats) {
		eng := sim.New(3)
		dev, st := Wire(eng,
			nic.Config{Queues: 1, RingSize: 64, Budget: batch, OffloadCost: 500},
			Config{Batch: batch, SKBAllocCost: 300, ProtoCost: 1300, PolicyRunCost: 700, XSKCopyCost: 400})
		sock, _ := st.NewUDPSocket(9000, 1, "w")
		st.SetXDP(XDPGeneric, asmProg(t, "pass", "r0 = PASS\nexit\n"))
		dev.SetOffloadProgram(asmProg(t, "off", "r0 = PASS\nexit\n"))
		// All four arrive at t=0, park behind the 500 ns offload stage,
		// and drain from the ring at t=500 as one burst (Budget permitting).
		for i := 0; i < 4; i++ {
			dev.Receive(mkPkt(uint64(i), uint16(6000+i), 9000, nil))
		}
		// Softirq completions land at 1900, 3300, 4700, 6100. The revoke
		// at t=2000 falls between the first and the second.
		eng.After(2000, func() { st.SetXDP(XDPNone, nil) })
		eng.Run()
		return drainEnqueueInstants([]*Socket{sock}), st.XDP().Stats().Runs, st.Stats
	}
	ref, refRuns, refStats := run(1)
	got, gotRuns, gotStats := run(4)
	if refRuns != 1 || gotRuns != 1 {
		t.Fatalf("XDP runs: per-packet %d, batch %d — want exactly 1 (only the pre-revoke packet)", refRuns, gotRuns)
	}
	if len(ref) != 4 || len(got) != 4 {
		t.Fatalf("delivered %d/%d of 4", len(ref), len(got))
	}
	// Spot-check the arithmetic: softirq 500+1400k, protocol serialized
	// behind the burst's busyUntil (6100), 1300 ns each.
	want := map[uint64]sim.Time{0: 7400, 1: 8700, 2: 10000, 3: 11300}
	for id, w := range want {
		if ref[id] != w {
			t.Fatalf("per-packet: packet %d enqueued at %d, want %d", id, ref[id], w)
		}
		if got[id] != w {
			t.Fatalf("batch: packet %d enqueued at %d, want %d", id, got[id], w)
		}
	}
	if refStats != gotStats {
		t.Fatalf("stats diverged: batch %+v, per-packet %+v", gotStats, refStats)
	}
}

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// TestZeroAllocDeliverBatch gates the stack's burst hot path end to end:
// with pooled packets, a warm softirq FIFO, and the socket ring warm,
// receiving a burst and carrying it through offload, XDP dispatch,
// protocol processing, and socket delivery allocates nothing.
func TestZeroAllocDeliverBatch(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under the race detector; the packet pool cannot stay warm")
	}
	eng := sim.New(1)
	dev, st := Wire(eng, nic.Config{Queues: 1, RingSize: 256, Budget: 8}, Config{Batch: 8})
	sock, _ := st.NewUDPSocket(9000, 1, "w")
	st.SetXDP(XDPGeneric, asmProg(t, "pass", "r0 = PASS\nexit\n"))
	dev.SetOffloadProgram(asmProg(t, "off", "r0 = PASS\nexit\n"))
	burst := func() {
		for i := 0; i < 8; i++ {
			pkt := nic.NewPacket()
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
	for i := 0; i < 64; i++ { // warm pools, FIFO, and ring capacity
		burst()
	}
	if avg := testing.AllocsPerRun(200, burst); avg != 0 {
		t.Fatalf("batch delivery: %v allocs/op, want 0", avg)
	}
}
