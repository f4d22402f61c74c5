// Package netstack models the kernel receive path the paper instruments:
// per-RX-queue softirq processing (SKB allocation + protocol work), the
// XDP_DRV / XDP_SKB hooks feeding AF_XDP sockets, the CPU Redirect hook,
// and SO_REUSEPORT socket groups with the Socket Select hook. Policies run
// as verified eBPF programs at each hook, and every hook charges the
// decision+enforcement cost on the softirq core that executes it.
package netstack

import (
	"fmt"

	"syrup/internal/faults"
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

	// q chains the queued datagrams through the packets themselves, like
	// the kernel's sk_receive_queue; cap bounds its length. The bound is a
	// count, not storage, so a socket costs the same whatever its cap.
	cap    int
	q      nic.Queue
	waiter func()
	// group is the reuseport group the socket joined (AddSocket); when it
	// binds late, TryRecv draws from the group's shared queue.
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
	return &Socket{Port: port, App: app, cap: capacity, Label: label}
}

// Enqueue appends a packet, waking any parked waiter. It reports false
// (and counts a drop) when the queue is full or the socket is closed.
func (s *Socket) Enqueue(pkt *nic.Packet) bool {
	if s.closed || s.q.Len() >= s.cap {
		s.Drops++
		return false
	}
	s.q.Push(pkt)
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
	if g := s.group; g != nil && g.lateCap > 0 {
		return g.late.Pop()
	}
	return s.q.Pop()
}

// Len reports queued datagrams.
func (s *Socket) Len() int { return s.q.Len() }

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
	// late chains them through the packets, as a socket's q does; lateCap
	// bounds it and is 0 while the group binds early.
	late    nic.Queue
	lateCap int
}

// EnableLateBinding switches the group to late binding with the given
// shared-queue capacity. The Socket Select program, if any, still runs for
// its PASS/DROP verdict (admission control); executor indices are ignored
// because binding happens at recv time. A second call, or a call while a
// member socket holds datagrams (TryRecv would strand them), panics.
func (g *ReuseportGroup) EnableLateBinding(capacity int) {
	if capacity <= 0 {
		panic("netstack: late-binding capacity must be positive")
	}
	if g.lateCap > 0 {
		panic(fmt.Sprintf("netstack: port %d already binds late", g.Port))
	}
	for _, s := range g.sockets {
		if s.Len() > 0 {
			panic(fmt.Sprintf("netstack: late binding would strand %d datagrams in socket %s", s.Len(), s.Label))
		}
	}
	g.lateCap = capacity
}

// lateEnqueue buffers a datagram centrally and wakes one parked executor.
func (g *ReuseportGroup) lateEnqueue(pkt *nic.Packet) bool {
	if g.late.Len() >= g.lateCap {
		return false
	}
	g.late.Push(pkt)
	for _, s := range g.sockets {
		if w := s.waiter; w != nil {
			s.waiter = nil
			w()
			break
		}
	}
	return true
}

// NewReuseportGroup creates an empty group for a port on host h.
func NewReuseportGroup(h *hook.Host, port uint16, app uint32) *ReuseportGroup {
	return &ReuseportGroup{
		Port:  port,
		App:   app,
		point: hook.NewPoint(h, fmt.Sprintf("socket_select:%d", port), faults.SiteSocketSelect),
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
// which trace spans report as the routing decision. cpu is the core the
// policy runs on.
func (g *ReuseportGroup) selectSocket(pkt *nic.Packet, hash, cpu uint32) (*Socket, int, selectResult) {
	if len(g.sockets) == 0 {
		return nil, -1, noExecutor
	}
	defaultIdx := int(hash % uint32(len(g.sockets)))
	if !g.point.Attached() {
		return g.sockets[defaultIdx], defaultIdx, selected
	}
	v := g.point.Run(hook.Input{Packet: pkt.Bytes(), Hash: hash, Port: uint32(pkt.DstPort), Queue: uint32(pkt.Queue), Req: pkt.ID, CPU: cpu})
	switch {
	case v.Faulted || v.Action == hook.Pass:
		// A fault fails open like the kernel (counted by the hook point's
		// fault counters, so verifier escapes stay visible).
		return g.sockets[defaultIdx], defaultIdx, selected
	case v.Action == hook.Drop:
		return nil, -1, dropped
	case int(v.Index) < len(g.sockets):
		return g.sockets[v.Index], int(v.Index), selected
	default:
		return nil, -1, noExecutor
	}
}
