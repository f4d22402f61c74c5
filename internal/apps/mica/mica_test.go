package mica

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

type fixture struct {
	eng   *sim.Engine
	m     *kernel.Machine
	dev   *nic.NIC
	stack *netstack.Stack
	srv   *Server
	done  int
}

func newFixture(t *testing.T, threads int, mode Mode) *fixture {
	t.Helper()
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: threads})
	dev, stack := netstack.Wire(eng, nic.Config{Queues: threads}, netstack.Config{})
	f := &fixture{eng: eng, m: m, dev: dev, stack: stack}
	f.srv = NewServer(eng, m, stack, Config{
		Port: 9000, App: 1, NumThreads: threads, Mode: mode,
		OnComplete: func(uint64, sim.Time) { f.done++ },
	})

	// Wire the steering the experiment harness normally deploys through
	// syrupd: the mica_hash policy at the relevant hook.
	prog, _, err := policy.Load(policy.NameMicaHash, map[string]int64{"NUM_EXECUTORS": int64(threads)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stack.SetXDPMode(netstack.XDPGeneric)
	switch mode {
	case ModeSyrupSW:
		stack.XDP().Set(prog)
	case ModeSyrupHW:
		dev.Offload().Set(prog)
		// Kernel side: trivial redirect into the queue's only socket.
		trivial, _, err := ebpf.AssembleAndLoad("to-xsk", "r0 = 0\nexit\n", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		stack.XDP().Set(trivial)
	case ModeSWRedirect:
		// RSS decides the queue; queue's only socket gets the packet.
		trivial, _, err := ebpf.AssembleAndLoad("to-xsk", "r0 = 0\nexit\n", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		stack.XDP().Set(trivial)
	}
	f.srv.Start()
	eng.Run()
	return f
}

func (f *fixture) inject(n int) {
	for i := 0; i < n; i++ {
		key := uint64(i)
		pkt := &nic.Packet{
			ID: uint64(i), SrcIP: 1, DstIP: 2,
			SrcPort: uint16(1000 + i%97), DstPort: 9000,
			Payload: policy.EncodeHeader(policy.ReqGET, 0, KeyHash(key), uint64(i)),
		}
		f.dev.Receive(pkt)
	}
	f.eng.Run()
}

func TestKeyHashDeterministic(t *testing.T) {
	if KeyHash(42) != KeyHash(42) {
		t.Fatal("unstable key hash")
	}
	if KeyHash(1) == KeyHash(2) {
		t.Fatal("suspicious collision")
	}
}

func TestModeSyrupSWRoutesToHomePartition(t *testing.T) {
	f := newFixture(t, 4, ModeSyrupSW)
	f.inject(200)
	if f.done != 200 {
		t.Fatalf("completed %d/200", f.done)
	}
	// EREW: every key must have been served by its home partition.
	var total uint64
	for i := 0; i < 4; i++ {
		total += f.srv.Partition(i).Gets
	}
	if total != 200 {
		t.Fatalf("partition gets = %d", total)
	}
	// SW mode still incurs cross-queue movement but never the ring.
	if f.srv.Forwarded != 0 {
		t.Fatalf("SW mode used the ring %d times", f.srv.Forwarded)
	}
}

func TestModeSWRedirectForwardsForeignKeys(t *testing.T) {
	f := newFixture(t, 4, ModeSWRedirect)
	f.inject(400)
	if f.done != 400 {
		t.Fatalf("completed %d/400", f.done)
	}
	if f.srv.Forwarded == 0 {
		t.Fatal("no requests crossed the inter-core ring; redirect mode inert")
	}
	// With uniform keys over 4 threads, ~3/4 should be forwarded.
	frac := float64(f.srv.Forwarded) / 400
	if frac < 0.5 || frac > 0.95 {
		t.Fatalf("forwarded fraction %.2f implausible", frac)
	}
}

func TestModeSyrupHWAllLocal(t *testing.T) {
	f := newFixture(t, 4, ModeSyrupHW)
	f.inject(200)
	if f.done != 200 {
		t.Fatalf("completed %d/200", f.done)
	}
	if f.srv.Forwarded != 0 {
		t.Fatalf("HW mode forwarded %d requests", f.srv.Forwarded)
	}
	if f.srv.Local != 200 {
		t.Fatalf("local = %d, want 200 (NIC steering should land every packet home)", f.srv.Local)
	}
}

func TestModesCostOrdering(t *testing.T) {
	// Same offered batch; the virtual finish time must order
	// HW < SW < redirect (§5.4's headline).
	finish := map[Mode]sim.Time{}
	for _, mode := range []Mode{ModeSWRedirect, ModeSyrupSW, ModeSyrupHW} {
		f := newFixture(t, 4, mode)
		f.inject(2000)
		if f.done != 2000 {
			t.Fatalf("%v completed %d", mode, f.done)
		}
		finish[mode] = f.eng.Now()
	}
	if !(finish[ModeSyrupHW] < finish[ModeSyrupSW] && finish[ModeSyrupSW] < finish[ModeSWRedirect]) {
		t.Fatalf("cost ordering wrong: HW=%v SW=%v redirect=%v",
			finish[ModeSyrupHW], finish[ModeSyrupSW], finish[ModeSWRedirect])
	}
}

func TestPutsHitPartitions(t *testing.T) {
	f := newFixture(t, 2, ModeSyrupHW)
	for i := 0; i < 50; i++ {
		key := uint64(i)
		f.dev.Receive(&nic.Packet{
			ID: uint64(i), SrcPort: uint16(1000 + i), DstPort: 9000,
			Payload: policy.EncodeHeader(policy.ReqPUT, 0, KeyHash(key), uint64(i)),
		})
	}
	f.eng.Run()
	var puts uint64
	for i := 0; i < 2; i++ {
		puts += f.srv.Partition(i).Puts
	}
	if puts != 50 {
		t.Fatalf("puts = %d", puts)
	}
}

func TestBadConfigPanics(t *testing.T) {
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: 2})
	_, stack := netstack.Wire(eng, nic.Config{Queues: 2}, netstack.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribed NumThreads accepted")
		}
	}()
	NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 5})
}

// KeyHash is the client-side hash MICA clients compute and embed in the
// request header: FNV-1a over the key's 8 little-endian bytes.
func KeyHash(key uint64) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 8; i++ {
		h ^= uint32(key>>(8*i)) & 0xff
		h *= 16777619
	}
	return h
}
