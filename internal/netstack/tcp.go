package netstack

import (
	"encoding/binary"
	"fmt"

	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/nic"
)

// TCP-lite: enough of a connection-oriented path to exercise the paper's
// two stream-scheduling modes.
//
// Connection scheduling (Fig. 4's "TCP Connection → TCP Socket" row): the
// Socket Select policy runs once per connection, on the SYN; every
// subsequent segment of that connection lands on the accepting listener.
//
// KCM request scheduling (§6.4): the Kernel Connection Multiplexor parses
// request boundaries out of the byte streams and runs the policy once per
// request, so requests from one connection can fan out across workers —
// trading connection affinity for balance, exactly the knob §6.4 wants.

// Conn is an established TCP connection.
type Conn struct {
	ID       uint64
	SrcIP    uint32
	SrcPort  uint16
	DstPort  uint16
	Listener *Listener

	// stream accumulates bytes not yet framed into requests (KCM mode).
	stream []byte
}

// Listener is one listening socket in a TCP reuseport group: it owns an
// accept queue of new connections and a receive queue of requests.
type Listener struct {
	Label string

	acceptQ   []*Conn
	acceptCap int
	waiter    func()

	// Requests delivers framed application requests for connections bound
	// to this listener (or scheduled here by KCM).
	Requests *Socket

	// Drops counts accept-queue overflows.
	AcceptDrops uint64
}

// TryAccept pops a pending connection, or nil.
func (l *Listener) TryAccept() *Conn {
	if len(l.acceptQ) == 0 {
		return nil
	}
	c := l.acceptQ[0]
	l.acceptQ[0] = nil
	l.acceptQ = l.acceptQ[1:]
	return c
}

// WaitAccept parks fn until the next connection arrives.
func (l *Listener) WaitAccept(fn func()) {
	if l.waiter != nil {
		panic(fmt.Sprintf("netstack: listener %s already has an accept waiter", l.Label))
	}
	l.waiter = fn
}

func (l *Listener) deliverConn(c *Conn) bool {
	if len(l.acceptQ) >= l.acceptCap {
		l.AcceptDrops++
		return false
	}
	l.acceptQ = append(l.acceptQ, c)
	if w := l.waiter; w != nil {
		l.waiter = nil
		w()
	}
	return true
}

// TCPGroup is the connection-oriented counterpart of ReuseportGroup: a set
// of listeners on one port, an optional Socket Select program deciding
// which listener accepts each new connection, and optional KCM request
// scheduling on top of established streams.
type TCPGroup struct {
	Port uint16
	App  uint32

	listeners []*Listener
	// point is the group's Socket Select hook point (per-group attachment
	// gives the hook per-application isolation, as for UDP groups).
	point *hook.Point

	// KCM mode: when enabled, framed requests are re-scheduled per
	// request by the program instead of following their connection.
	kcm bool

	conns      map[uint64]*Conn // by flow key
	nextConnID uint64

	// Stats. A policy's DROPs are its hook point's (Hook().Stats()).
	Accepted    uint64
	NoExecutor  uint64
	Requests    uint64
	BadSegments uint64
}

// NewTCPGroup creates an empty TCP group on host h.
func NewTCPGroup(h *hook.Host, port uint16, app uint32) *TCPGroup {
	return &TCPGroup{
		Port:  port,
		App:   app,
		conns: make(map[uint64]*Conn),
		point: hook.NewPoint(h, fmt.Sprintf("socket_select:%d/tcp", port), faults.SiteSocketSelect),
	}
}

// AddListener registers a listener and returns its executor index.
func (g *TCPGroup) AddListener(label string, acceptCap, requestCap int) (*Listener, int) {
	l := &Listener{
		Label:     label,
		acceptCap: acceptCap,
		Requests:  NewSocket(g.Port, g.App, requestCap, label+"-reqs"),
	}
	g.listeners = append(g.listeners, l)
	return l, len(g.listeners) - 1
}

// Hook exposes the group's Socket Select hook point; syrupd attaches
// through it.
func (g *TCPGroup) Hook() *hook.Point { return g.point }

// EnableKCM switches to request-level scheduling over streams (§6.4).
func (g *TCPGroup) EnableKCM() { g.kcm = true }

func flowKey(ip uint32, port uint16) uint64 { return uint64(ip)<<16 | uint64(port) }

// HandleSegment processes one TCP segment after protocol processing:
// SYNs establish connections (scheduled by the policy), data segments are
// framed into requests and delivered. cpu is the core the policy runs on.
func (g *TCPGroup) HandleSegment(pkt *nic.Packet, hash, cpu uint32) {
	key := flowKey(pkt.SrcIP, pkt.SrcPort)
	if pkt.SYN {
		if _, dup := g.conns[key]; dup {
			return // retransmitted SYN
		}
		l := g.selectListener(pkt, hash, cpu)
		if l == nil {
			return
		}
		g.nextConnID++
		c := &Conn{
			ID: g.nextConnID, SrcIP: pkt.SrcIP, SrcPort: pkt.SrcPort,
			DstPort: pkt.DstPort, Listener: l,
		}
		if !l.deliverConn(c) {
			return
		}
		g.conns[key] = c
		g.Accepted++
		return
	}

	c, ok := g.conns[key]
	if !ok {
		g.BadSegments++ // data before SYN: dropped, like a RST
		return
	}
	// Frame requests out of the stream: 2-byte little-endian length
	// prefix + body (the KCM "programmatically identify request
	// boundaries" contract; clients here always send whole requests, but
	// the framer handles splits).
	c.stream = append(c.stream, pkt.Payload...)
	for {
		if len(c.stream) < 2 {
			return
		}
		n := int(binary.LittleEndian.Uint16(c.stream))
		if len(c.stream) < 2+n {
			return
		}
		body := make([]byte, n)
		copy(body, c.stream[2:2+n])
		c.stream = c.stream[2+n:]
		g.deliverRequest(c, pkt, body, hash, cpu)
	}
}

func (g *TCPGroup) deliverRequest(c *Conn, pkt *nic.Packet, body []byte, hash, cpu uint32) {
	g.Requests++
	req := &nic.Packet{
		ID: pkt.ID, SrcIP: pkt.SrcIP, DstIP: pkt.DstIP,
		SrcPort: pkt.SrcPort, DstPort: pkt.DstPort,
		Payload: body, SentAt: pkt.SentAt,
		// Carry the trace stamps so the framed request's socket span
		// starts at the segment's delivery instant.
		ArrivedAt: pkt.ArrivedAt, SoftirqAt: pkt.SoftirqAt,
		ProtoAt: pkt.ProtoAt, EnqueuedAt: pkt.EnqueuedAt,
	}
	target := c.Listener
	if g.kcm {
		// KCM: the policy re-schedules every request individually.
		if l := g.selectListener(req, hash, cpu); l != nil {
			target = l
		} else {
			return
		}
	}
	target.Requests.Enqueue(req)
}

// selectListener runs the policy (or hash fallback) and resolves the
// executor index to a listener. nil means the input was dropped.
func (g *TCPGroup) selectListener(pkt *nic.Packet, hash, cpu uint32) *Listener {
	if len(g.listeners) == 0 {
		g.NoExecutor++
		return nil
	}
	if !g.point.Attached() {
		return g.listeners[hash%uint32(len(g.listeners))]
	}
	v := g.point.Run(hook.Input{Packet: pkt.Bytes(), Hash: hash, Port: uint32(pkt.DstPort), Queue: uint32(pkt.Queue), Req: pkt.ID, CPU: cpu})
	switch {
	case v.Faulted || v.Action == hook.Pass:
		return g.listeners[hash%uint32(len(g.listeners))]
	case v.Action == hook.Drop:
		return nil
	case int(v.Index) < len(g.listeners):
		return g.listeners[v.Index]
	default:
		g.NoExecutor++
		return nil
	}
}
