package rocksdb

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

func testHost(t *testing.T, cpus, queues int) (*sim.Engine, *kernel.Machine, *nic.NIC, *netstack.Stack) {
	t.Helper()
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: cpus})
	dev, stack := netstack.Wire(&hook.Host{Eng: eng}, nic.Config{Queues: queues})
	return eng, m, dev, stack
}

func reqPacket(id uint64, port uint16, reqType uint64, keyHash uint32, flow uint16) *nic.Packet {
	return &nic.Packet{
		ID: id, SrcIP: 1, DstIP: 2, SrcPort: flow, DstPort: port,
		Payload: policy.EncodeHeader(reqType, 0, keyHash, id),
	}
}

func TestServerServesGets(t *testing.T) {
	eng, m, dev, stack := testHost(t, 2, 1)
	var completions []sim.Time
	srv := NewServer(eng, m, stack, Config{
		Port: 9000, App: 1, NumThreads: 2, PinToCores: true,
		OnComplete: func(id uint64, at sim.Time) { completions = append(completions, at) },
	})
	srv.Start()
	eng.Run()
	for i := 0; i < 10; i++ {
		dev.Receive(reqPacket(uint64(i), 9000, policy.ReqGET, uint32(i), uint16(1000+i)))
	}
	eng.Run()
	if len(completions) != 10 {
		t.Fatalf("completed %d/10", len(completions))
	}
	if srv.ProcessedGET != 10 {
		t.Fatalf("ProcessedGET = %d", srv.ProcessedGET)
	}
	// GETs take ~10-12us service + ~1.1us overheads + stack ~1.6us + 1us
	// ctx switch: completions must be plausibly placed in time.
	for _, at := range completions {
		if at < 10*sim.Microsecond {
			t.Fatalf("completion at %v implausibly early", at)
		}
	}
	// Real storage engine touched.
	if srv.Store().Gets != 10 {
		t.Fatalf("store gets = %d", srv.Store().Gets)
	}
}

// TestServerHoldsNoKeySpace: a server's store is its key count, so building
// a 6-thread server allocates its threads, sockets and flow sets and
// nothing per key.
func TestServerHoldsNoKeySpace(t *testing.T) {
	eng, m, _, stack := testHost(t, 6, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 6})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewServer at 6 threads allocated %d bytes, want < %d", got, 64<<10)
	}
	if lo, hi := srv.Store().Scan("", keySpace+1); lo != 0 || hi != keySpace {
		t.Fatalf("the store covers [%d, %d), want [0, %d)", lo, hi, keySpace)
	}
}

// TestServerStoreCounters: over a seeded mix of GETs and SCANs whose keys
// reach the end of the key space, the store counts every GET found, none
// missed, one SCAN per SCAN served, and each SCAN's min(100, keySpace −
// start) entries.
func TestServerStoreCounters(t *testing.T) {
	eng, m, dev, stack := testHost(t, 2, 1)
	srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 2})
	srv.Start()
	eng.Run()
	rng := rand.New(rand.NewPCG(5, 45))
	var scans, scanned uint64
	for i := range 400 {
		keyHash := rng.Uint32()
		if i%4 == 0 {
			keyHash = uint32(keySpace*rng.IntN(1000) + keySpace - 1 - rng.IntN(150)) // near the end
		}
		reqType := policy.ReqGET
		if rng.IntN(5) == 0 {
			reqType = policy.ReqSCAN
			scans++
			scanned += uint64(min(100, keySpace-int(keyHash%keySpace)))
		}
		dev.Receive(reqPacket(uint64(i), 9000, reqType, keyHash, uint16(1000+i%64)))
		eng.RunUntil(eng.Now() + 50*sim.Microsecond)
	}
	eng.Run()
	st := srv.Store()
	if srv.ProcessedGET+srv.ProcessedSCAN != 400 || srv.ProcessedSCAN != scans {
		t.Fatalf("served %d GETs and %d SCANs, want %d and %d", srv.ProcessedGET, srv.ProcessedSCAN, 400-scans, scans)
	}
	if st.Gets != srv.ProcessedGET || st.Misses != 0 || st.Scans != scans || st.Scanned != scanned {
		t.Fatalf("store counts %d gets, %d misses, %d scans over %d entries; want %d, 0, %d over %d",
			st.Gets, st.Misses, st.Scans, st.Scanned, srv.ProcessedGET, scans, scanned)
	}
}

func TestServerMarksScanState(t *testing.T) {
	eng, m, dev, stack := testHost(t, 1, 1)
	scanState, err := ebpf.NewMap(ebpf.MapSpec{Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, m, stack, Config{
		Port: 9000, App: 1, NumThreads: 1, ScanState: scanState,
	})
	srv.Start()
	eng.Run()
	dev.Receive(reqPacket(1, 9000, policy.ReqSCAN, 5, 1000))
	// Mid-SCAN (service ≈ 700us), the slot must read SCAN.
	eng.RunUntil(eng.Now() + 300*sim.Microsecond)
	if got := srv.ThreadSlotType(0); got != policy.ReqSCAN {
		t.Fatalf("mid-scan slot type = %d", got)
	}
	eng.Run()
	if got := srv.ThreadSlotType(0); got != policy.ReqGET {
		t.Fatalf("post-scan slot type = %d", got)
	}
	if srv.ProcessedSCAN != 1 {
		t.Fatalf("scans = %d", srv.ProcessedSCAN)
	}
}

func TestServerMalformedRequestIgnored(t *testing.T) {
	eng, m, dev, stack := testHost(t, 1, 1)
	srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 1})
	srv.Start()
	eng.Run()
	dev.Receive(&nic.Packet{ID: 1, SrcPort: 1, DstPort: 9000, Payload: []byte{1, 2, 3}})
	dev.Receive(reqPacket(2, 9000, policy.ReqGET, 0, 1))
	eng.Run()
	if srv.ProcessedGET != 1 {
		t.Fatalf("processed = %d (malformed should be skipped)", srv.ProcessedGET)
	}
}

func TestServerThreadsBlockWhenIdle(t *testing.T) {
	eng, m, _, stack := testHost(t, 2, 1)
	srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 2})
	srv.Start()
	eng.Run()
	for i, th := range srv.Threads() {
		if th.State() != kernel.ThreadBlocked {
			t.Fatalf("idle thread %d in state %v", i, th.State())
		}
	}
}

func TestServerPinning(t *testing.T) {
	eng, m, dev, stack := testHost(t, 2, 1)
	srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 2, PinToCores: true})
	srv.Start()
	eng.Run()
	// Drive one request to each thread via distinct flows until both have
	// work; threads must run on their own cores.
	for i := 0; i < 40; i++ {
		dev.Receive(reqPacket(uint64(i), 9000, policy.ReqGET, uint32(i), uint16(2000+i)))
	}
	eng.RunUntil(eng.Now() + 20*sim.Microsecond)
	for i, th := range srv.Threads() {
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			if m.CPU(kernel.CPUID(cpu)).Curr() == th && cpu != i {
				t.Fatalf("pinned thread %d on cpu %d", i, cpu)
			}
		}
	}
	eng.Run()
}

// ThreadSlotType returns the request type thread i is currently marked as
// processing (for ghOSt policies that read the cross-layer map).
func (s *Server) ThreadSlotType(i int) uint64 {
	if s.cfg.ScanState == nil {
		return 0
	}
	v, _ := s.cfg.ScanState.LookupUint64(uint32(i))
	return v
}
