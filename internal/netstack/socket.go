// Package netstack models the kernel receive path the paper instruments:
// per-RX-queue softirq processing (SKB allocation + protocol work), the
// XDP_DRV / XDP_SKB hooks feeding AF_XDP sockets, the CPU Redirect hook,
// and SO_REUSEPORT socket groups with the Socket Select hook. Policies run
// as verified eBPF programs at each hook, and every hook charges the
// decision+enforcement cost on the softirq core that executes it.
package netstack

import (
	"fmt"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/nic"
)

// Socket is a bounded datagram receive queue. It models both regular UDP
// sockets (filled after protocol processing) and AF_XDP sockets (filled
// directly from the XDP hooks). A single waiter — the owning thread's
// blocked recvmsg — can be parked on it.
type Socket struct {
	Port uint16
	App  uint32
	// Label is a human-readable identity for debugging ("rocksdb-w3").
	Label string

	// queue is a fixed circular buffer of cap slots: head indexes the
	// oldest datagram, count the occupancy. A ring (rather than an
	// append+reslice slice) keeps steady-state enqueue/recv allocation-
	// free, like the kernel's fixed-size sk_receive_queue budget.
	cap    int
	queue  []*nic.Packet
	head   int
	count  int
	waiter func()
	// group backlink, set when the owning reuseport group uses late
	// binding; TryRecv then draws from the group's shared queue.
	group *ReuseportGroup

	// closed marks a dead socket (its owner is gone): enqueues fail and
	// deliverers treat it as a missing executor. No run closes a socket;
	// the guard keeps a stale executor index from delivering into one.
	closed bool

	// Drops counts enqueue failures due to a full queue.
	Drops uint64
	// Enqueued counts successful enqueues.
	Enqueued uint64
}

// NewSocket creates a socket with the given queue capacity.
func NewSocket(port uint16, app uint32, capacity int, label string) *Socket {
	if capacity <= 0 {
		panic("netstack: socket capacity must be positive")
	}
	return &Socket{Port: port, App: app, cap: capacity, queue: make([]*nic.Packet, capacity), Label: label}
}

// Enqueue appends a packet, waking any parked waiter. It reports false
// (and counts a drop) when the queue is full or the socket is closed.
func (s *Socket) Enqueue(pkt *nic.Packet) bool {
	if s.closed || s.count >= s.cap {
		s.Drops++
		return false
	}
	slot := s.head + s.count
	if slot >= s.cap {
		slot -= s.cap
	}
	s.queue[slot] = pkt
	s.count++
	s.Enqueued++
	if w := s.waiter; w != nil {
		s.waiter = nil
		w()
	}
	return true
}

// TryRecv pops the head packet, or nil when empty. Under late binding the
// packet comes from the group's shared queue: the executor binds to its
// input only at the moment it can process it.
func (s *Socket) TryRecv() *nic.Packet {
	if s.group != nil && s.group.lateBinding {
		return s.group.latePop()
	}
	if s.count == 0 {
		return nil
	}
	pkt := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == s.cap {
		s.head = 0
	}
	s.count--
	return pkt
}

// Len reports queued datagrams.
func (s *Socket) Len() int { return s.count }

// WaitRecv parks fn until the next enqueue. Only one waiter may be parked;
// a second registration is a modeling bug (each socket belongs to one
// server thread in the paper's setups).
func (s *Socket) WaitRecv(fn func()) {
	if s.waiter != nil {
		panic(fmt.Sprintf("netstack: socket %s already has a waiter", s.Label))
	}
	s.waiter = fn
}

// SetWaiter installs fn as the socket's waiter, replacing any previous
// one. Pollset-style consumers (a thread multiplexing several AF_XDP
// sockets) use this: re-arming an already-armed socket is expected there.
func (s *Socket) SetWaiter(fn func()) { s.waiter = fn }

// ReuseportGroup is the set of sockets bound to one UDP port with
// SO_REUSEPORT, plus the optional Syrup Socket Select program attached to
// the group (attachment per group is what gives the hook per-application
// isolation: a policy only ever sees datagrams for its own port, §4.4).
type ReuseportGroup struct {
	Port uint16
	App  uint32

	sockets []*Socket
	// point is the group's Socket Select hook point (per-group attachment
	// is what gives the hook per-application isolation).
	point *hook.Point

	// Late binding (§6.3): instead of assigning each datagram to a socket
	// on arrival (early binding), datagrams wait in one shared queue and
	// are handed to whichever executor asks for work next — eliminating
	// executor-side head-of-line blocking at the cost of a central queue.
	lateBinding bool
	// Shared queue as a fixed ring (same shape as Socket's queue).
	lateQueue []*nic.Packet
	lateHead  int
	lateCount int
	lateCap   int

	// Stats.
	PolicyRuns   uint64
	PolicyDrops  uint64
	PolicyPasses uint64
	NoExecutor   uint64
	LateDrops    uint64
}

// EnableLateBinding switches the group to late binding with the given
// shared-queue capacity. The Socket Select program, if any, still runs for
// its PASS/DROP verdict (admission control); executor indices are ignored
// because binding happens at recv time.
func (g *ReuseportGroup) EnableLateBinding(capacity int) {
	if capacity <= 0 {
		panic("netstack: late-binding capacity must be positive")
	}
	g.lateBinding = true
	g.lateCap = capacity
	g.lateQueue = make([]*nic.Packet, capacity)
	g.lateHead, g.lateCount = 0, 0
	for _, s := range g.sockets {
		s.group = g
	}
}

// lateEnqueue buffers a datagram centrally and wakes one parked executor.
func (g *ReuseportGroup) lateEnqueue(pkt *nic.Packet) bool {
	if g.lateCount >= g.lateCap {
		g.LateDrops++
		return false
	}
	slot := g.lateHead + g.lateCount
	if slot >= g.lateCap {
		slot -= g.lateCap
	}
	g.lateQueue[slot] = pkt
	g.lateCount++
	for _, s := range g.sockets {
		if w := s.waiter; w != nil {
			s.waiter = nil
			w()
			break
		}
	}
	return true
}

// latePop hands the head datagram to an executor that became available.
func (g *ReuseportGroup) latePop() *nic.Packet {
	if g.lateCount == 0 {
		return nil
	}
	pkt := g.lateQueue[g.lateHead]
	g.lateQueue[g.lateHead] = nil
	g.lateHead++
	if g.lateHead == g.lateCap {
		g.lateHead = 0
	}
	g.lateCount--
	return pkt
}

// NewReuseportGroup creates an empty group for a port.
func NewReuseportGroup(port uint16, app uint32) *ReuseportGroup {
	return &ReuseportGroup{
		Port:  port,
		App:   app,
		point: hook.NewPoint(fmt.Sprintf("socket_select:%d", port), nil),
	}
}

// AddSocket appends a socket to the group's executor table and returns its
// index (the value a policy returns to pick it). This models the paper's
// workflow of registering sockets after bind() (§3.3).
func (g *ReuseportGroup) AddSocket(s *Socket) int {
	if s.Port != g.Port {
		panic(fmt.Sprintf("netstack: socket port %d joined group for port %d", s.Port, g.Port))
	}
	s.group = g
	g.sockets = append(g.sockets, s)
	return len(g.sockets) - 1
}

// Hook exposes the group's Socket Select hook point; syrupd attaches
// through it.
func (g *ReuseportGroup) Hook() *hook.Point { return g.point }

// selectResult is the outcome of socket selection.
type selectResult int

const (
	selected selectResult = iota
	dropped
	noExecutor
)

// selectSocket picks the destination socket for pkt: the attached policy's
// verdict, or hash-based selection (vanilla Linux reuseport) otherwise.
// The returned index is the chosen executor's slot (-1 unless selected),
// which trace spans report as the routing decision.
func (g *ReuseportGroup) selectSocket(pkt *nic.Packet, hash uint32, env *ebpf.Env) (*Socket, int, selectResult) {
	if len(g.sockets) == 0 {
		return nil, -1, noExecutor
	}
	defaultIdx := int(hash % uint32(len(g.sockets)))
	if !g.point.Attached() {
		return g.sockets[defaultIdx], defaultIdx, selected
	}
	g.PolicyRuns++
	v := g.point.Run(hook.Input{Packet: pkt.Bytes(), Hash: hash, Port: uint32(pkt.DstPort), Queue: uint32(pkt.Queue), Req: pkt.ID, Env: env})
	switch {
	case v.Faulted || v.Action == hook.Pass:
		// A fault fails open like the kernel (counted by the hook point's
		// fault counters, so verifier escapes stay visible).
		g.PolicyPasses++
		return g.sockets[defaultIdx], defaultIdx, selected
	case v.Action == hook.Drop:
		g.PolicyDrops++
		return nil, -1, dropped
	case int(v.Index) < len(g.sockets):
		return g.sockets[v.Index], int(v.Index), selected
	default:
		g.NoExecutor++
		return nil, -1, noExecutor
	}
}
