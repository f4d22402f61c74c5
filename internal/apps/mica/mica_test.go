package mica

import (
	"math/rand/v2"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
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
	dev, stack := netstack.Wire(&hook.Host{Eng: eng}, nic.Config{Queues: threads})
	f := &fixture{eng: eng, m: m, dev: dev, stack: stack}
	f.srv = NewServer(eng, m, stack, Config{
		Port: 9000, App: 1, NumThreads: threads, Mode: mode,
		OnComplete: func(uint64, sim.Time) { f.done++ },
	})

	// Wire the steering the experiment harness normally deploys through
	// syrupd: the mica_hash policy at the relevant hook.
	v, err := policy.Verify(policy.NameMicaHash, map[string]int64{"NUM_EXECUTORS": int64(threads)})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := v.Bind(nil)
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
		trivial, err := ebpf.Load("to-xsk", []ebpf.Instruction{ebpf.MovImm(ebpf.R0, 0), ebpf.Exit()}, ebpf.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stack.XDP().Set(trivial)
	case ModeSWRedirect:
		// RSS decides the queue; queue's only socket gets the packet.
		trivial, err := ebpf.Load("to-xsk", []ebpf.Instruction{ebpf.MovImm(ebpf.R0, 0), ebpf.Exit()}, ebpf.LoadOptions{})
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
	// 203 keys, so the partitions' loads differ and a key served from any
	// partition but its home moves a count.
	const n = 203
	f := newFixture(t, 4, ModeSyrupSW)
	f.inject(n)
	if f.done != n {
		t.Fatalf("completed %d/%d", f.done, n)
	}
	// EREW: every key must have been served by its home partition.
	var want [4]uint64
	for i := range uint64(n) {
		want[KeyHash(i)%4]++
	}
	for i, w := range want {
		if got := f.srv.Partition(i).Gets; got != w {
			t.Fatalf("partition %d served %d gets, want %d (%v)", i, got, w, want)
		}
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
	_, stack := netstack.Wire(&hook.Host{Eng: eng}, nic.Config{Queues: 2})
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

// TestPartitionBitmapsMatchFullWidth: a partition's bitmap covers only the
// keys its thread can own, indexed by key/gcd(KeySpace, NumThreads). Over
// a random GET/PUT stream it counts the same Gets, Puts and Misses per
// partition as a bitmap over the whole key space would — for a key space
// the threads divide, one they do not (gcd 1) and one they share a factor
// with.
func TestPartitionBitmapsMatchFullWidth(t *testing.T) {
	for _, c := range []struct{ keys, threads, stride int }{
		{1 << 20, 8, 8},
		{(1 << 20) / 3, 8, 1},
		{1 << 18, 6, 2},
	} {
		eng := sim.New(1)
		m := kernel.New(eng, kernel.Config{NumCPUs: c.threads})
		_, stack := netstack.Wire(&hook.Host{Eng: eng}, nic.Config{Queues: c.threads})
		srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: c.threads, Mode: ModeSyrupSW, KeySpace: c.keys})
		if want := (c.keys/c.stride + 63) / 64; len(srv.Partition(0).present) != want {
			t.Errorf("K=%d N=%d: %d bitmap words, want %d", c.keys, c.threads, len(srv.Partition(0).present), want)
		}

		full := make([]Partition, c.threads)
		for i := range full {
			full[i].present = make([]uint64, (c.keys+63)/64)
		}
		r := rand.New(rand.NewPCG(uint64(c.keys), uint64(c.threads)))
		pool := make([]uint32, 4096) // repeat hashes so GETs hit, and alias keys mod K
		for i := range pool {
			pool[i] = r.Uint32()
			if i%3 == 0 {
				pool[i] = pool[i/2] + uint32(c.keys)
			}
		}
		for i := 0; i < 200_000; i++ {
			h := pool[r.IntN(len(pool))]
			reqType := uint64(policy.ReqGET)
			if r.IntN(3) == 0 {
				reqType = policy.ReqPUT
			}
			home := srv.homeOf(h)
			srv.apply(home, h, reqType)
			full[home].op(uint64(h)%uint64(c.keys), reqType)
		}
		for i := range full {
			got, want := srv.Partition(i), &full[i]
			if got.Gets != want.Gets || got.Puts != want.Puts || got.Misses != want.Misses {
				t.Errorf("K=%d N=%d partition %d: gets/puts/misses %d/%d/%d, full width %d/%d/%d",
					c.keys, c.threads, i, got.Gets, got.Puts, got.Misses, want.Gets, want.Puts, want.Misses)
			}
			if want.Misses == 0 || want.Misses == want.Gets {
				t.Errorf("K=%d N=%d partition %d: %d misses of %d gets, want both hits and misses", c.keys, c.threads, i, want.Misses, want.Gets)
			}
		}
	}
}
