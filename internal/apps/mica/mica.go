// Package mica implements the MICA-like partitioned key-value store of
// §5.4: data partitioned across cores (EREW — each partition is owned and
// touched by exactly one thread), keys steered to their "home" thread by
// key hash. Three request-steering backends reproduce the paper's
// comparison:
//
//   - ModeSWRedirect ("SW Redirect, original MICA"): RSS spreads packets
//     across threads; the receiving thread parses each request and, for
//     foreign keys, forwards it to the home thread over an inter-core ring
//     (up to two data movements).
//   - ModeSyrupSW ("Syrup SW"): the mica_hash policy at the kernel AF_XDP
//     hook steers each packet directly to the home thread's AF_XDP socket
//     (one movement).
//   - ModeSyrupHW ("Syrup HW"): the same policy runs on the NIC and picks
//     the home thread's RX queue, so the packet lands on the right core's
//     buddy from the start (zero movements).
package mica

import (
	"fmt"

	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// Mode selects the steering backend.
type Mode int

// Steering modes.
const (
	ModeSWRedirect Mode = iota
	ModeSyrupSW
	ModeSyrupHW
)

func (m Mode) String() string {
	switch m {
	case ModeSWRedirect:
		return "SW Redirect (Original MICA)"
	case ModeSyrupSW:
		return "Syrup SW (Kernel)"
	case ModeSyrupHW:
		return "Syrup HW (NIC)"
	}
	return "?"
}

// Partition is one thread's exclusive shard. Values in the simulation are
// synthetic, so the store reduces to a presence bitset over the keys the
// partition can own. Thread t only ever sees keys k ≡ t (mod g), g =
// gcd(KeySpace, NumThreads) (Server.keyStride), so bit k/g names each of
// them once and a partition holds ceil(KeySpace/g) bits. EREW ownership
// (only the home thread ever touches a partition) means no lock is needed.
type Partition struct {
	present []uint64

	Gets, Puts, Misses uint64
}

func newPartition(keys uint64) *Partition {
	return &Partition{present: make([]uint64, (keys+63)/64)}
}

// op applies one request to the key at bit slot of the partition.
func (p *Partition) op(slot uint64, reqType uint64) {
	word, bit := slot>>6, uint64(1)<<(slot&63)
	switch reqType {
	case policy.ReqPUT:
		p.present[word] |= bit
		p.Puts++
	default:
		if p.present[word]&bit == 0 {
			p.Misses++
		}
		p.Gets++
	}
}

// Config describes a MICA deployment.
type Config struct {
	Port       uint16
	App        uint32
	NumThreads int
	Mode       Mode

	// Shard/NumShards place this server in a keyspace partitioned across
	// a cluster: it owns exactly the keys with policy.KeyShardOf(hash,
	// NumShards) == Shard, and KeySpace is this shard's share (total
	// keyspace / NumShards). A request for a foreign key — mis-steered by
	// the cluster layer — is counted in Foreign and dropped without
	// touching any partition, preserving EREW ownership across hosts just
	// as it holds across cores. NumShards <= 1 means an unsharded
	// (single-host) deployment.
	Shard     int
	NumShards int

	// Cost model (defaults from DESIGN.md calibration).
	PollCost    sim.Time // per-request rx/poll cost (0.25 µs)
	OpGetCost   sim.Time // GET processing incl. tx (2.1 µs)
	OpPutCost   sim.Time // PUT processing incl. tx (2.4 µs)
	ParseCost   sim.Time // request parse on the wrong core (0.6 µs)
	EnqueueCost sim.Time // inter-core ring enqueue (0.65 µs)
	DequeueCost sim.Time // inter-core ring dequeue (0.35 µs)
	CrossCost   sim.Time // cache-line transfer when data crossed cores (0.45 µs)

	RingCap int // inter-core ring capacity (4096)
	XSKCap  int // AF_XDP socket rx ring capacity (2048)

	OnComplete func(reqID uint64, finish sim.Time)
	KeySpace   int
}

func (c *Config) fill() {
	def := func(v *sim.Time, d sim.Time) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.PollCost, 250)
	def(&c.OpGetCost, 2100)
	def(&c.OpPutCost, 2400)
	def(&c.ParseCost, 600)
	def(&c.EnqueueCost, 650)
	def(&c.DequeueCost, 350)
	def(&c.CrossCost, 450)
	if c.RingCap == 0 {
		c.RingCap = 4096
	}
	if c.XSKCap == 0 {
		c.XSKCap = 2048
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 20
		if c.NumShards > 1 {
			c.KeySpace /= c.NumShards
		}
	}
	if c.NumShards > 1 && (c.Shard < 0 || c.Shard >= c.NumShards) {
		panic(fmt.Sprintf("mica: Shard %d outside [0,%d)", c.Shard, c.NumShards))
	}
}

// Server is the MICA server: NumThreads pinned threads, one partition
// each, plus mode-specific sockets and rings.
type Server struct {
	cfg        Config
	eng        *sim.Engine
	partitions []*Partition
	threads    []*kernel.Thread
	// keyStride is gcd(KeySpace, NumThreads). A key's home thread
	// (hash mod NumThreads) and the key (hash mod KeySpace) agree mod it,
	// so the keys of one partition are one residue class mod keyStride.
	keyStride uint64

	// xsks[i] lists thread i's AF_XDP sockets (8 per thread in SW mode —
	// one per queue; 1 in HW/redirect modes).
	xsks [][]*netstack.Socket
	// rings[i] is thread i's inbound inter-core ring (SW-redirect mode).
	rings []*netstack.Socket

	// Stats.
	Forwarded uint64 // requests that crossed the ring
	Local     uint64 // requests served by their receiving thread
	Foreign   uint64 // requests for keys another cluster shard owns (dropped)
}

// NewServer builds the server and registers its AF_XDP sockets in the
// stack's executor tables. Threads are pinned 1:1 to cores 0..N-1 (MICA's
// deployment model).
func NewServer(eng *sim.Engine, m *kernel.Machine, stack *netstack.Stack, cfg Config) *Server {
	cfg.fill()
	if cfg.NumThreads <= 0 || cfg.NumThreads > m.NumCPUs() {
		panic("mica: NumThreads must be in 1..NumCPUs")
	}
	s := &Server{cfg: cfg, eng: eng, keyStride: gcd(uint64(cfg.KeySpace), uint64(cfg.NumThreads))}
	n := cfg.NumThreads
	keys := (uint64(cfg.KeySpace) + s.keyStride - 1) / s.keyStride
	for i := 0; i < n; i++ {
		s.partitions = append(s.partitions, newPartition(keys))
	}

	// Socket topology per mode (paper §5.4):
	switch cfg.Mode {
	case ModeSyrupSW:
		// Thread t gets one socket per RX queue; the executor table for
		// each queue is indexed by thread, so the mica_hash verdict (home
		// thread) works on every queue.
		for t := 0; t < n; t++ {
			var socks []*netstack.Socket
			for q := 0; q < n; q++ {
				sock := netstack.NewSocket(cfg.Port, cfg.App, cfg.XSKCap, fmt.Sprintf("mica-t%d-q%d", t, q))
				socks = append(socks, sock)
			}
			s.xsks = append(s.xsks, socks)
		}
		// Registration order: queue-major so index within a queue's table
		// equals the thread id.
		for q := 0; q < n; q++ {
			for t := 0; t < n; t++ {
				if idx := stack.RegisterXSK(cfg.Port, q, s.xsks[t][q]); idx != t {
					panic("mica: xsk executor index mismatch")
				}
			}
		}
	case ModeSyrupHW, ModeSWRedirect:
		// One socket per thread, bound to the thread's own queue.
		for t := 0; t < n; t++ {
			sock := netstack.NewSocket(cfg.Port, cfg.App, cfg.XSKCap, fmt.Sprintf("mica-t%d", t))
			s.xsks = append(s.xsks, []*netstack.Socket{sock})
			if idx := stack.RegisterXSK(cfg.Port, t, sock); idx != 0 {
				panic("mica: xsk executor index mismatch")
			}
		}
	}
	if cfg.Mode == ModeSWRedirect {
		for t := 0; t < n; t++ {
			s.rings = append(s.rings, netstack.NewSocket(cfg.Port, cfg.App, cfg.RingCap, fmt.Sprintf("mica-ring%d", t)))
		}
	}

	for i := 0; i < n; i++ {
		i := i
		th := m.NewThread(fmt.Sprintf("mica-%d", i), cfg.App, 1<<uint(i), func(th *kernel.Thread) {
			s.workerLoop(th, i)
		})
		s.threads = append(s.threads, th)
	}
	return s
}

// Start wakes all worker threads.
func (s *Server) Start() {
	for _, th := range s.threads {
		th.Wake()
	}
}

// homeOf maps a key hash to its home thread.
func (s *Server) homeOf(keyHash uint32) int { return int(keyHash) % s.cfg.NumThreads }

// worker is one thread's poll state plus its preallocated continuations:
// the serve hot path parks per-request state here and hands th.Exec a
// long-lived func, so steady-state request service allocates nothing.
type worker struct {
	s       *Server
	th      *kernel.Thread
	me      int
	sources []*netstack.Socket
	next    int

	loop func()
	wake func()

	// In-flight request, consumed by opCont / fwdCont.
	pkt     *nic.Packet
	home    int
	keyHash uint32
	reqType uint64
	reqID   uint64

	opCont  func()
	fwdCont func()
}

// workerLoop polls the thread's sockets (and ring, in redirect mode) and
// serves requests.
func (s *Server) workerLoop(th *kernel.Thread, me int) {
	w := &worker{s: s, th: th, me: me}
	w.sources = make([]*netstack.Socket, 0, len(s.xsks[me])+1)
	if s.rings != nil {
		w.sources = append(w.sources, s.rings[me]) // ring first: finish in-flight work
	}
	w.sources = append(w.sources, s.xsks[me]...)
	w.wake = func() { th.Wake() }
	w.opCont = w.finishOp
	w.fwdCont = w.finishForward
	w.loop = func() {
		var pkt *nic.Packet
		var fromRing bool
		for i := 0; i < len(w.sources); i++ {
			src := w.sources[(w.next+i)%len(w.sources)]
			if p := src.TryRecv(); p != nil {
				pkt = p
				fromRing = s.rings != nil && src == s.rings[me]
				w.next = (w.next + i + 1) % len(w.sources)
				break
			}
		}
		if pkt == nil {
			for _, src := range w.sources {
				src.SetWaiter(w.wake)
			}
			th.Block(w.loop)
			return
		}
		s.serve(w, pkt, fromRing)
	}
	w.loop()
}

func (s *Server) serve(w *worker, pkt *nic.Packet, fromRing bool) {
	reqType, _, keyHash, reqID, ok := policy.DecodeHeader(pkt.Payload)
	if !ok {
		pkt.Free()
		w.loop()
		return
	}
	if s.cfg.NumShards > 1 && policy.KeyShardOf(keyHash, s.cfg.NumShards) != s.cfg.Shard {
		// Mis-steered by the cluster layer: this host does not own the
		// key. Dropping (never completing) charges the miss to whoever
		// steered the flow, and keeps cross-host EREW intact.
		s.Foreign++
		pkt.Free()
		w.loop()
		return
	}
	home := s.homeOf(keyHash)

	// SW-redirect mode: a packet from the NIC may belong to another
	// thread's partition; parse and forward it over the ring.
	if s.cfg.Mode == ModeSWRedirect && !fromRing && home != w.me {
		s.Forwarded++
		w.pkt, w.home = pkt, home
		w.th.Exec(s.cfg.PollCost+s.cfg.ParseCost+s.cfg.EnqueueCost, w.fwdCont)
		return
	}

	// Serving path cost: rx + (movement penalties) + the operation.
	cost := s.cfg.PollCost
	if fromRing {
		cost += s.cfg.DequeueCost + s.cfg.CrossCost
	} else if s.cfg.Mode == ModeSyrupSW && int(pkt.Queue) != w.me {
		// The packet's softirq/XSK work happened on a foreign queue's
		// buddy; its lines arrive cold.
		cost += s.cfg.CrossCost
	} else {
		s.Local++
	}
	op := s.cfg.OpGetCost
	if reqType == policy.ReqPUT {
		op = s.cfg.OpPutCost
	}
	cost += op

	w.pkt, w.home, w.keyHash, w.reqType, w.reqID = pkt, home, keyHash, reqType, reqID
	w.th.Exec(cost, w.opCont)
}

// finishForward pushes the parked packet onto its home thread's ring.
func (w *worker) finishForward() {
	pkt := w.pkt
	w.pkt = nil
	if !w.s.rings[w.home].Enqueue(pkt) {
		pkt.Free() // ring overflow drops, like DPDK
	}
	w.loop()
}

// finishOp applies the parked request to its partition and completes it.
func (w *worker) finishOp() {
	s := w.s
	// The real partition operation (EREW: only this thread touches
	// partition `home`; redirect mode guarantees home == me here).
	s.apply(w.home, w.keyHash, w.reqType)
	pkt := w.pkt
	w.pkt = nil
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(w.reqID, s.eng.Now())
	}
	pkt.Free()
	w.loop()
}

// apply runs one request on partition home, whose thread owns the key.
func (s *Server) apply(home int, keyHash uint32, reqType uint64) {
	key := uint64(keyHash) % uint64(s.cfg.KeySpace)
	s.partitions[home].op(key/s.keyStride, reqType)
}

// gcd is the greatest common divisor of a and b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Partition exposes partition i (tests).
func (s *Server) Partition(i int) *Partition { return s.partitions[i] }
