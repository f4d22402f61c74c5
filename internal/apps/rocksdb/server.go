package rocksdb

import (
	"fmt"

	"syrup/internal/ebpf"
	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// ServiceModel produces per-request virtual service times.
type ServiceModel func(rng interface{ Float64() float64 }, reqType uint64) sim.Time

// DefaultServiceModel is the paper's RocksDB profile: GETs uniform
// 10–12 µs, SCANs ≈ 700 µs ±5 %.
func DefaultServiceModel(rng interface{ Float64() float64 }, reqType uint64) sim.Time {
	switch reqType {
	case policy.ReqSCAN:
		return sim.Time(700_000 * (0.95 + 0.1*rng.Float64()))
	default:
		return sim.Time(10_000 + 2_000*rng.Float64())
	}
}

// Config describes a RocksDB server deployment.
type Config struct {
	Port       uint16
	App        uint32
	NumThreads int
	// PinToCores pins thread i to core i%NumCPUs (the 6-thread/6-core
	// setups); false leaves placement to the scheduler (the 36-thread
	// Fig. 8 setup).
	PinToCores bool
	// Service overrides DefaultServiceModel.
	Service ServiceModel
	// ScanState, when set, is updated with the request type each thread
	// is processing (the userspace half of SCAN Avoid, Fig. 5b, also read
	// by the ghOSt GET-priority policy).
	ScanState *ebpf.Map
	// OnComplete reports request completions (server-side finish time).
	OnComplete func(reqID uint64, finish sim.Time)
	// FlowLocalityBonus models Receive Flow Steering's cache benefit
	// (§2.1): each thread keeps a small warm set of recently served flows
	// (flowLRUSize entries); serving a warm flow shrinks the request's
	// service time by this fraction. Hash steering pins each flow to one
	// thread and keeps it warm; policies that spray flows across threads
	// forfeit the discount.
	FlowLocalityBonus float64
	// Tracer, when enabled, receives the kernel-side lifecycle spans:
	// socket wait (enqueue→dequeue), runqueue wait (wake→dispatch, when
	// the worker was blocked), and on-CPU service (dequeue→completion).
	Tracer *trace.Recorder
}

// flowLRUSize is the per-thread warm flow-context capacity.
const flowLRUSize = 4

const (
	// recvOverhead and sendOverhead are the per-request syscall+copy+
	// reply costs around the storage operation (≈1.25 µs each,
	// calibrated so 6 GET-serving threads saturate near the paper's
	// ≈450 K RPS in Fig. 2).
	recvOverhead = 1250 * sim.Nanosecond
	sendOverhead = 1250 * sim.Nanosecond
	// keySpace is the server's preloaded key count: a request's key is
	// Key(keyHash % keySpace).
	keySpace = 10_000
)

// Server is a multi-threaded SO_REUSEPORT UDP RocksDB server.
type Server struct {
	cfg     Config
	eng     *sim.Engine
	store   *Store
	threads []*kernel.Thread
	sockets []*netstack.Socket

	// Processed counts completed requests per type.
	ProcessedGET  uint64
	ProcessedSCAN uint64
	// LocalityHits counts requests served from a thread's warm flow set.
	LocalityHits uint64
	// Malformed counts requests dropped because their header does not
	// decode or asks for a PUT: the store is a preloaded key space that
	// nothing writes.
	Malformed uint64

	warmFlows [][]uint64 // per-thread LRU of recently served flows
}

// Dropped is every request the server dropped: the malformed ones.
func (s *Server) Dropped() uint64 { return s.Malformed }

// NewServer creates the server's threads and sockets. Each worker thread
// owns exactly one socket in the port's reuseport group, so a Socket
// Select verdict of i schedules onto thread i.
func NewServer(eng *sim.Engine, m *kernel.Machine, stack *netstack.Stack, cfg Config) *Server {
	if cfg.NumThreads <= 0 {
		panic("rocksdb: NumThreads must be positive")
	}
	if cfg.Service == nil {
		cfg.Service = DefaultServiceModel
	}
	s := &Server{cfg: cfg, eng: eng, store: NewStore(), warmFlows: make([][]uint64, cfg.NumThreads)}
	s.store.Preload(keySpace)
	for i := 0; i < cfg.NumThreads; i++ {
		i := i
		sock, idx := stack.NewUDPSocket(cfg.Port, cfg.App, fmt.Sprintf("rocksdb-w%d", i))
		if idx != i {
			panic("rocksdb: socket index mismatch")
		}
		s.sockets = append(s.sockets, sock)
		var affinity uint64
		if cfg.PinToCores {
			affinity = 1 << uint(i%m.NumCPUs())
		}
		th := m.NewThread(fmt.Sprintf("rocksdb-%d", i), cfg.App, affinity, func(th *kernel.Thread) {
			s.workerLoop(th, i)
		})
		s.threads = append(s.threads, th)
	}
	return s
}

// Threads exposes the worker threads (for ghOSt registration).
func (s *Server) Threads() []*kernel.Thread { return s.threads }

// Sockets exposes the per-thread sockets.
func (s *Server) Sockets() []*netstack.Socket { return s.sockets }

// Store exposes the server's store.
func (s *Server) Store() *Store { return s.store }

// Start wakes all worker threads.
func (s *Server) Start() {
	for _, th := range s.threads {
		th.Wake()
	}
}

// touchFlow reports whether flow was warm on thread slot and promotes it
// to the front of the thread's LRU.
func (s *Server) touchFlow(slot int, flow uint64) bool {
	lru := s.warmFlows[slot]
	for i, f := range lru {
		if f == flow {
			copy(lru[1:i+1], lru[:i])
			lru[0] = flow
			return true
		}
	}
	if len(lru) < flowLRUSize {
		lru = append(lru, 0)
	}
	copy(lru[1:], lru)
	lru[0] = flow
	s.warmFlows[slot] = lru
	return false
}

// worker is one thread's serve-loop state plus its preallocated
// continuation, so steady-state request service schedules on th.Exec
// without allocating a closure per request.
type worker struct {
	s    *Server
	th   *kernel.Thread
	slot int
	sock *netstack.Socket
	// wasBlocked marks that this packet's dequeue followed a block→wake
	// cycle, so the serve path can attribute the runqueue wait.
	wasBlocked bool

	loop func()
	wake func()

	// In-flight request, consumed by opCont.
	pkt     *nic.Packet
	reqType uint64
	reqID   uint64
	keyHash uint32
	start   sim.Time

	opCont func()
}

// workerLoop is the per-thread serve loop: recv → mark type → burn the
// service time → perform the storage op → reply → repeat.
func (s *Server) workerLoop(th *kernel.Thread, slot int) {
	w := &worker{s: s, th: th, slot: slot, sock: s.sockets[slot]}
	w.wake = func() { th.Wake() }
	w.opCont = w.finishOp
	w.loop = func() {
		pkt := w.sock.TryRecv()
		if pkt == nil {
			w.sock.WaitRecv(w.wake)
			w.wasBlocked = true
			th.Block(w.loop)
			return
		}
		blocked := w.wasBlocked
		w.wasBlocked = false
		s.serve(w, pkt, blocked)
	}
	w.loop()
}

func (s *Server) serve(w *worker, pkt *nic.Packet, wasBlocked bool) {
	th, slot := w.th, w.slot
	reqType, _, keyHash, reqID, ok := policy.DecodeHeader(pkt.Payload)
	if !ok || reqType == policy.ReqPUT {
		s.Malformed++
		pkt.Drop()
		w.loop() // malformed request: ignore
		return
	}
	start := s.eng.Now()
	if s.cfg.Tracer.Enabled() {
		cpu := int32(th.LastCPU())
		// Socket wait: enqueue to this dequeue. The runqueue wait
		// (wake→dispatch) sits inside its tail whenever the worker had
		// to block, and is recorded as its own sub-stage span.
		s.cfg.Tracer.Record(trace.Span{
			Req: pkt.ID, Start: pkt.EnqueuedAt, End: start, Stage: trace.StageSocket,
			CPU: cpu, Executor: uint32(slot), Port: pkt.DstPort,
		})
		if wasBlocked {
			s.cfg.Tracer.Record(trace.Span{
				Req: pkt.ID, Start: th.LastWakeAt(), End: th.DispatchedAt(),
				Stage: trace.StageRunqueue, CPU: cpu, Executor: uint32(slot), Port: pkt.DstPort,
			})
		}
	}
	if s.cfg.ScanState != nil {
		// Userspace half of SCAN Avoid: record what we're processing.
		s.cfg.ScanState.UpdateUint64(uint32(slot), reqType)
	}
	service := s.cfg.Service(s.eng.Rand(), reqType)
	if s.cfg.FlowLocalityBonus > 0 {
		flow := uint64(pkt.SrcIP)<<16 | uint64(pkt.SrcPort)
		if s.touchFlow(slot, flow) {
			s.LocalityHits++
			service = sim.Time(float64(service) * (1 - s.cfg.FlowLocalityBonus))
		}
	}
	total := recvOverhead + service + sendOverhead
	w.pkt, w.reqType, w.reqID, w.keyHash, w.start = pkt, reqType, reqID, keyHash, start
	th.Exec(total, w.opCont)
}

// finishOp performs the storage operation for the parked request
// (virtual time already charged by serve) and completes it.
func (w *worker) finishOp() {
	s, slot, pkt := w.s, w.slot, w.pkt
	w.pkt = nil
	key := int(w.keyHash % keySpace)
	switch w.reqType {
	case policy.ReqSCAN:
		s.store.scan(key, 100)
		s.ProcessedSCAN++
	default:
		s.store.get(key)
		s.ProcessedGET++
	}
	if s.cfg.ScanState != nil {
		s.cfg.ScanState.UpdateUint64(uint32(slot), policy.ReqGET)
	}
	if s.cfg.Tracer.Enabled() {
		s.cfg.Tracer.Record(trace.Span{
			Req: pkt.ID, Start: w.start, End: s.eng.Now(), Stage: trace.StageOnCPU,
			CPU: int32(w.th.LastCPU()), Executor: uint32(slot), Port: pkt.DstPort,
		})
	}
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(w.reqID, s.eng.Now())
	}
	pkt.Free()
	w.loop()
}
