package netstack

import (
	"slices"

	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/metrics"
	"syrup/internal/nic"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// The stack's per-packet cost model and queue bounds, calibrated in
// DESIGN.md "Calibration constants".
const (
	// skbAllocCost is buffer allocation per packet (≈0.3 µs).
	skbAllocCost = 300 * sim.Nanosecond
	// protoCost is IP+UDP protocol processing per packet (≈1.3 µs).
	protoCost = 1300 * sim.Nanosecond
	// xskCopyCost is the extra copy when delivering to AF_XDP in generic
	// (XDP_SKB) mode; native (XDP_DRV) mode is zero-copy.
	xskCopyCost = 400 * sim.Nanosecond
	// socketQueueCap bounds each socket's receive queue in datagrams
	// (≈212 KB rmem_default / ~800 B effective truesize ≈ 256).
	socketQueueCap = 256
	// backlogCap bounds each softirq core's backlog (netdev_max_backlog).
	backlogCap = 1000
)

// XDPMode selects where the XDP program runs in the receive path.
type XDPMode int

// XDP modes (paper §5.1.2): native runs in the driver before SKB
// allocation with zero-copy AF_XDP; generic runs after SKB allocation,
// driver-independent but with a copy.
const (
	XDPNone XDPMode = iota
	XDPNative
	XDPGeneric
)

// Stats counts stack-level events. A packet admitted to a softirq backlog
// is Processed once the softirq core reaches it; every processed packet
// then ends as exactly one of a drop cause after the backlog, an AF_XDP
// delivery (XSKDelivered) or a UDP one (UDPDelivered: handed to an
// executor's socket, or to the group's shared queue under late binding).
type Stats struct {
	Processed       uint64
	BacklogDrops    uint64
	SocketDrops     uint64
	PolicyDrops     uint64
	NoExecutorDrops uint64
	NoGroupDrops    uint64
	XSKDelivered    uint64
	XSKDrops        uint64
	UDPDelivered    uint64
}

// TotalDrops sums every stack-level drop cause.
func (s *Stats) TotalDrops() uint64 {
	return s.BacklogDrops + s.SocketDrops + s.PolicyDrops + s.NoExecutorDrops + s.NoGroupDrops + s.XSKDrops
}

// AppendCounters appends the stack's counters to dst as netstack_<field>.
func (s *Stack) AppendCounters(dst []metrics.CounterValue) []metrics.CounterValue {
	st := &s.Stats
	return append(dst,
		metrics.CounterValue{Name: "netstack_processed", Value: st.Processed},
		metrics.CounterValue{Name: "netstack_backlog_drops", Value: st.BacklogDrops},
		metrics.CounterValue{Name: "netstack_socket_drops", Value: st.SocketDrops},
		metrics.CounterValue{Name: "netstack_policy_drops", Value: st.PolicyDrops},
		metrics.CounterValue{Name: "netstack_no_executor_drops", Value: st.NoExecutorDrops},
		metrics.CounterValue{Name: "netstack_no_group_drops", Value: st.NoGroupDrops},
		metrics.CounterValue{Name: "netstack_xsk_delivered", Value: st.XSKDelivered},
		metrics.CounterValue{Name: "netstack_xsk_drops", Value: st.XSKDrops},
		metrics.CounterValue{Name: "netstack_udp_delivered", Value: st.UDPDelivered})
}

// softirqCore is a serial per-RX-queue service timeline: the hyperthread
// buddy that runs IRQ + softirq work for that queue (§5.1.1 maps each
// queue's interrupt to the buddy of the application hyperthread).
type softirqCore struct {
	busyUntil sim.Time
	backlog   int
}

// Stack is the kernel receive path.
type Stack struct {
	eng *sim.Engine
	dev *nic.NIC
	// host supplies the request tracer (StageSoftirq and StageProto spans
	// per packet) and the chaos injector (SKB allocation failures), and
	// every hook point the stack creates is built on it.
	host *hook.Host

	cores []softirqCore

	// xdp is the XDP hook point (one slot serving both drv and skb
	// attachments; mode selects where in the receive path it runs).
	xdpMode XDPMode
	xdp     *hook.Point

	// cpuRedirect is the CPU Redirect hook point.
	cpuRedirect *hook.Point

	groups map[uint16]*ReuseportGroup

	// xsks holds the AF_XDP executor tables, scoped per destination port
	// (= per application, preserving executor-map isolation) and per RX
	// queue: the policy verdict indexes into the packet's port+queue
	// socket list (the paper's Syrup SW setup registers one socket per
	// MICA thread per queue).
	xsks map[uint16][][]*Socket

	// ingressCB / protoCB are the stored closure-free callbacks for the two
	// pipeline events (arg = *nic.Packet, u = queue / core), so Deliver and
	// protocolStage schedule without allocating.
	ingressCB sim.Callback
	protoCB   sim.Callback

	Stats Stats
}

// New creates the receive path of host h. Call dev's constructor with
// stack.Deliver as the DeliverFunc (or use Wire).
func New(h *hook.Host, queues int) *Stack {
	s := &Stack{
		eng:    h.Eng,
		host:   h,
		cores:  make([]softirqCore, queues),
		groups: make(map[uint16]*ReuseportGroup),
		xsks:   make(map[uint16][][]*Socket),
	}
	// Runs pass the executing softirq core as Input.CPU, so
	// get_smp_processor_id reads it.
	s.xdp = hook.NewPoint(h, "xdp", "")
	s.cpuRedirect = hook.NewPoint(h, string(hook.CPURedirect), "")
	s.ingressCB = func(arg any, u uint64) {
		queue := int(u)
		s.cores[queue].backlog--
		if s.dev != nil {
			s.dev.Consumed(queue)
		}
		s.afterIngress(queue, arg.(*nic.Packet))
	}
	s.protoCB = func(arg any, u uint64) { s.protocolDeliver(int(u), arg.(*nic.Packet)) }
	return s
}

// Wire builds host h's NIC and receive path, connected; convenience for
// hosts.
func Wire(h *hook.Host, nicCfg nic.Config) (*nic.NIC, *Stack) {
	s := New(h, max(nicCfg.Queues, 1))
	dev := nic.NewOnHost(h, nicCfg, s.Deliver)
	s.dev = dev
	return dev, s
}

// traceSpan records one lifecycle stage span ending now.
func (s *Stack) traceSpan(pkt *nic.Packet, stage trace.Stage, start sim.Time, cpu int, v trace.Verdict, exec uint32) {
	if !s.host.Tracer.Enabled() {
		return
	}
	s.host.Tracer.Record(trace.Span{
		Req: pkt.ID, Start: start, End: s.eng.Now(), Stage: stage,
		Verdict: v, CPU: int32(cpu), Executor: exec, Port: pkt.DstPort,
	})
}

// XDP exposes the XDP hook point; syrupd attaches through it (pairing the
// attachment with SetXDPMode).
func (s *Stack) XDP() *hook.Point { return s.xdp }

// CPURedirect exposes the CPU Redirect hook point.
func (s *Stack) CPURedirect() *hook.Point { return s.cpuRedirect }

// SetXDPMode selects where in the receive path the XDP point runs. The
// mode only matters while a program is attached; XDPNone disables the
// hook's cost stage without touching the attachment.
func (s *Stack) SetXDPMode(mode XDPMode) { s.xdpMode = mode }

// Group returns (creating if needed) the reuseport group for port.
func (s *Stack) Group(port uint16, app uint32) *ReuseportGroup {
	if g, ok := s.groups[port]; ok {
		return g
	}
	g := NewReuseportGroup(s.host, port, app)
	s.groups[port] = g
	return g
}

// LookupGroup returns the group for port, or nil.
func (s *Stack) LookupGroup(port uint16) *ReuseportGroup { return s.groups[port] }

// HookPoints appends every hook point the stack owns to dst in a fixed
// order: XDP, CPU Redirect, then each reuseport group's Socket Select by
// ascending port.
func (s *Stack) HookPoints(dst []*hook.Point) []*hook.Point {
	dst = append(dst, s.xdp, s.cpuRedirect)
	ports := make([]uint16, 0, len(s.groups))
	for port := range s.groups {
		ports = append(ports, port)
	}
	slices.Sort(ports)
	for _, port := range ports {
		dst = append(dst, s.groups[port].point)
	}
	return dst
}

// NewUDPSocket creates a socket bound to port and adds it to the port's
// reuseport group, returning the socket and its executor index.
func (s *Stack) NewUDPSocket(port uint16, app uint32, label string) (*Socket, int) {
	sock := NewSocket(port, app, socketQueueCap, label)
	idx := s.Group(port, app).AddSocket(sock)
	return sock, idx
}

// RegisterXSK appends an AF_XDP socket to port's executor table for queue
// and returns its index. Scoping the table by destination port keeps one
// application's XDP verdicts from reaching another application's sockets.
func (s *Stack) RegisterXSK(port uint16, queue int, sock *Socket) int {
	tables := s.xsks[port]
	if tables == nil {
		tables = make([][]*Socket, len(s.cores))
		s.xsks[port] = tables
	}
	tables[queue] = append(tables[queue], sock)
	return len(tables[queue]) - 1
}

// SocketQueueCap exposes the socket queue bound.
func (s *Stack) SocketQueueCap() int { return socketQueueCap }

// SoftirqBacklog sums the packets queued behind busy softirq cores across
// every RX queue — a live gauge for the telemetry sampler.
func (s *Stack) SoftirqBacklog() int {
	total := 0
	for i := range s.cores {
		total += s.cores[i].backlog
	}
	return total
}

// Queued sums the datagrams waiting in every socket the stack delivers
// to: each reuseport group's sockets and late-binding queue, and each
// AF_XDP socket.
func (s *Stack) Queued() int {
	n := 0
	for _, g := range s.groups {
		n += g.late.Len()
		for _, sock := range g.sockets {
			n += sock.Len()
		}
	}
	for _, tables := range s.xsks {
		for _, table := range tables {
			for _, sock := range table {
				n += sock.Len()
			}
		}
	}
	return n
}

// softirqCost computes one packet's softirq occupancy from an attachment
// snapshot. A detached XDP point (e.g. after a revoke) charges the
// plain-SKB path: nothing runs there.
func (s *Stack) softirqCost(xdpAttached bool) sim.Time {
	switch {
	case s.xdpMode == XDPNative && xdpAttached:
		return hook.RunCost // pre-SKB, zero-copy
	case s.xdpMode == XDPGeneric && xdpAttached:
		return skbAllocCost + hook.RunCost + xskCopyCost
	default:
		return skbAllocCost
	}
}

// Deliver is the NIC→host handoff (nic.DeliverFunc). The packet is
// processed serially on its queue's softirq core.
func (s *Stack) Deliver(queue int, pkt *nic.Packet) {
	pkt.SoftirqAt = s.eng.Now()
	core := &s.cores[queue]
	// An injected SKB allocation failure drops exactly where a full
	// backlog would: at admission, before any softirq cost is charged.
	if core.backlog >= backlogCap || s.host.Faults.Fire(faults.SiteSKBAlloc) {
		s.Stats.BacklogDrops++
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
		if s.dev != nil {
			s.dev.Consumed(queue)
		}
		pkt.Drop()
		return
	}
	core.backlog++

	cost := s.softirqCost(s.xdp.Attached())
	now := s.eng.Now()
	start := core.busyUntil
	if start < now {
		start = now
	}
	done := start + cost
	core.busyUntil = done
	s.eng.CallAt(done, s.ingressCB, pkt, uint64(queue))
}

// afterIngress runs once the softirq core has executed the pre-stack stage
// (XDP hook or plain SKB allocation).
func (s *Stack) afterIngress(queue int, pkt *nic.Packet) {
	s.Stats.Processed++
	if s.xdpMode != XDPNone && s.xdp.Attached() {
		v := s.xdp.Run(hook.Input{Packet: pkt.Bytes(), Hash: pkt.RSSHash(), Port: uint32(pkt.DstPort), Queue: uint32(queue), Req: pkt.ID, CPU: uint32(queue)})
		if !s.handleXDPVerdict(queue, pkt, v) {
			return
		}
	}
	s.postXDP(queue, pkt)
}

// handleXDPVerdict applies one XDP verdict; it reports whether the packet
// continues up the stack (fail-open / PASS) or was consumed here (drop or
// AF_XDP delivery).
func (s *Stack) handleXDPVerdict(queue int, pkt *nic.Packet, v hook.Verdict) bool {
	switch {
	case v.Faulted || v.Action == hook.Pass:
		// fail-open / PASS: continue up the stack
		return true
	case v.Action == hook.Drop:
		s.Stats.XSKDrops++
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
		pkt.Drop()
		return false
	default:
		var table []*Socket
		if tables := s.xsks[pkt.DstPort]; tables != nil {
			table = tables[queue]
		}
		if int(v.Index) >= len(table) || table[v.Index].closed {
			// Out of range — or a verdict naming a dead AF_XDP socket.
			// A stale executor index must never receive delivery: the
			// socket's consumer is gone, so the packet drops here as a
			// missing-executor, not into a dead queue.
			s.Stats.NoExecutorDrops++
			s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
			pkt.Drop()
			return false
		}
		// AF_XDP delivery bypasses protocol processing: the softirq
		// span ends at the socket enqueue.
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictSteer, v.Index)
		pkt.EnqueuedAt = s.eng.Now()
		if !table[v.Index].Enqueue(pkt) {
			s.Stats.XSKDrops++
			pkt.Drop()
			return false
		}
		s.Stats.XSKDelivered++
		return false
	}
}

// postXDP runs the stages after the XDP decision: CPU redirect and
// protocol processing.
func (s *Stack) postXDP(queue int, pkt *nic.Packet) {
	// CPU Redirect hook: choose the core for protocol processing.
	protoCore := queue
	if s.cpuRedirect.Attached() {
		v := s.cpuRedirect.Run(hook.Input{Packet: pkt.Bytes(), Hash: pkt.RSSHash(), Port: uint32(pkt.DstPort), Queue: uint32(queue), Req: pkt.ID, CPU: uint32(queue)})
		switch {
		case v.Faulted || v.Action == hook.Pass:
		case v.Action == hook.Drop:
			s.Stats.PolicyDrops++
			s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
			pkt.Drop()
			return
		case int(v.Index) < len(s.cores):
			protoCore = int(v.Index)
		default:
			s.Stats.NoExecutorDrops++
			s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
			pkt.Drop()
			return
		}
	}
	if protoCore != queue {
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictSteer, uint32(protoCore))
	} else {
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictNone, 0)
	}
	s.protocolStage(protoCore, pkt)
}

// protocolStage charges protocol processing on core, then performs socket
// selection and delivery.
func (s *Stack) protocolStage(core int, pkt *nic.Packet) {
	c := &s.cores[core]
	cost := protoCost
	if s.cpuRedirect.Attached() {
		cost += hook.RunCost
	}
	if g, ok := s.groups[pkt.DstPort]; ok && g.point.Attached() {
		// The Socket Select policy runs inline with delivery on this core.
		cost += hook.RunCost
	}
	now := s.eng.Now()
	pkt.ProtoAt = now
	start := c.busyUntil
	if start < now {
		start = now
	}
	done := start + cost
	c.busyUntil = done
	s.eng.CallAt(done, s.protoCB, pkt, uint64(core))
}

// protocolDeliver runs once the protocol-processing cost has elapsed on
// core: socket selection and delivery.
func (s *Stack) protocolDeliver(core int, pkt *nic.Packet) {
	g, ok := s.groups[pkt.DstPort]
	if !ok {
		s.Stats.NoGroupDrops++
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
		pkt.Drop()
		return
	}
	sock, idx, res := g.selectSocket(pkt, pkt.RSSHash(), uint32(core))
	switch res {
	case dropped:
		s.Stats.PolicyDrops++
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
		pkt.Drop()
	case noExecutor:
		s.Stats.NoExecutorDrops++
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
		pkt.Drop()
	case selected:
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictSteer, uint32(idx))
		pkt.EnqueuedAt = s.eng.Now()
		var queued bool
		if g.lateCap > 0 {
			queued = g.lateEnqueue(pkt)
		} else {
			queued = sock.Enqueue(pkt)
		}
		if queued {
			s.Stats.UDPDelivered++
		} else {
			s.Stats.SocketDrops++
			pkt.Drop()
		}
	}
}
