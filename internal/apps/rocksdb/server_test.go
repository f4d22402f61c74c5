package rocksdb

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"syrup/internal/ebpf"
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
	dev, stack := netstack.Wire(eng, nic.Config{Queues: queues}, netstack.Config{})
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
	if srv.Store().Gets.Load() != 10 {
		t.Fatalf("store gets = %d", srv.Store().Gets.Load())
	}
}

// TestServerSharesKeysWithStore: the server renders its key space once; the
// key it looks a request up by is the very string its store holds.
func TestServerSharesKeysWithStore(t *testing.T) {
	eng, m, _, stack := testHost(t, 1, 1)
	srv := NewServer(eng, m, stack, Config{Port: 9000, App: 1, NumThreads: 1, KeySpace: 300})
	if len(srv.keyTable) != 300 || srv.store.Len() != 300 {
		t.Fatalf("%d keys in the table, %d in the store, want 300", len(srv.keyTable), srv.store.Len())
	}
	for _, kv := range srv.store.Scan("", 300) {
		i, err := strconv.Atoi(strings.TrimPrefix(kv.Key, "key-"))
		if err != nil || unsafe.StringData(kv.Key) != unsafe.StringData(srv.keyTable[i]) {
			t.Fatalf("store key %q is not the server's key-table string", kv.Key)
		}
	}
}

func TestServerMarksScanState(t *testing.T) {
	eng, m, dev, stack := testHost(t, 1, 1)
	scanState := ebpf.MustNewMap(ebpf.MapSpec{Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
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
