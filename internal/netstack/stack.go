package netstack

import (
	"fmt"
	"slices"

	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/nic"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// Config sets the stack's per-packet cost model and queue bounds. Zero
// values take defaults calibrated in DESIGN.md.
type Config struct {
	// SKBAllocCost is buffer allocation per packet (≈0.3 µs).
	SKBAllocCost sim.Time
	// ProtoCost is IP+UDP protocol processing per packet (≈1.3 µs).
	ProtoCost sim.Time
	// PolicyRunCost is the decision+enforcement cost charged per eBPF
	// hook invocation (Table 2 measures ≈1.6 k cycles ≈ 0.7 µs).
	PolicyRunCost sim.Time
	// XSKCopyCost is the extra copy when delivering to AF_XDP in generic
	// (XDP_SKB) mode; native (XDP_DRV) mode is zero-copy.
	XSKCopyCost sim.Time
	// SocketQueueCap bounds each socket's receive queue in datagrams
	// (≈212 KB rmem_default / ~800 B effective truesize ≈ 256).
	SocketQueueCap int
	// BacklogCap bounds each softirq core's backlog (netdev_max_backlog).
	BacklogCap int
}

func (c *Config) fill() {
	if c.SKBAllocCost == 0 {
		c.SKBAllocCost = 300 * sim.Nanosecond
	}
	if c.ProtoCost == 0 {
		c.ProtoCost = 1300 * sim.Nanosecond
	}
	if c.PolicyRunCost == 0 {
		c.PolicyRunCost = 700 * sim.Nanosecond
	}
	if c.XSKCopyCost == 0 {
		c.XSKCopyCost = 400 * sim.Nanosecond
	}
	if c.SocketQueueCap == 0 {
		c.SocketQueueCap = 256
	}
	if c.BacklogCap == 0 {
		c.BacklogCap = 1000
	}
}

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

// Stats counts stack-level events.
type Stats struct {
	Processed       uint64
	BacklogDrops    uint64
	SocketDrops     uint64
	PolicyDrops     uint64
	NoExecutorDrops uint64
	NoGroupDrops    uint64
	XSKDelivered    uint64
	XSKDrops        uint64
}

// TotalDrops sums every stack-level drop cause — the cumulative counter
// the telemetry sampler differentiates into a drop rate.
func (s *Stats) TotalDrops() uint64 {
	return s.BacklogDrops + s.SocketDrops + s.PolicyDrops + s.NoExecutorDrops + s.NoGroupDrops + s.XSKDrops
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
	cfg Config
	dev *nic.NIC

	cores []softirqCore
	envs  []*ebpf.Env

	// xdp is the XDP hook point (one slot serving both drv and skb
	// attachments; mode selects where in the receive path it runs).
	xdpMode XDPMode
	xdp     *hook.Point

	// cpuRedirect is the CPU Redirect hook point.
	cpuRedirect *hook.Point

	groups    map[uint16]*ReuseportGroup
	tcpGroups map[uint16]*TCPGroup

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

	// tracer, when enabled, receives StageSoftirq and StageProto spans
	// per packet; it also fans out to every hook point the stack owns.
	tracer *trace.Recorder

	// faults, when armed by a chaos plan, injects SKB allocation
	// failures; the per-core envs and socket-select points carry their
	// own triggers.
	faults *faults.Injector

	Stats Stats
}

// New creates a stack bound to dev. Call dev's constructor with
// stack.Deliver as the DeliverFunc (or use Wire).
func New(eng *sim.Engine, cfg Config, queues int) *Stack {
	cfg.fill()
	s := &Stack{
		eng:       eng,
		cfg:       cfg,
		cores:     make([]softirqCore, queues),
		groups:    make(map[uint16]*ReuseportGroup),
		tcpGroups: make(map[uint16]*TCPGroup),
		xsks:      make(map[uint16][][]*Socket),
	}
	for i := 0; i < queues; i++ {
		i := i
		s.envs = append(s.envs, &ebpf.Env{
			Prandom: func() uint32 { return eng.Rand().Uint32() },
			Ktime:   func() uint64 { return uint64(eng.Now()) },
			CPUID:   uint32(i),
		})
	}
	// The points' default env is queue 0's; runs pass the per-core env
	// explicitly so get_smp_processor_id reads the executing softirq core.
	s.xdp = hook.NewPoint("xdp", s.envs[0])
	s.cpuRedirect = hook.NewPoint(string(hook.CPURedirect), s.envs[0])
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

// Wire connects a NIC to this stack and returns it; convenience for hosts.
func Wire(eng *sim.Engine, nicCfg nic.Config, stackCfg Config) (*nic.NIC, *Stack) {
	s := New(eng, stackCfg, max(nicCfg.Queues, 1))
	dev := nic.New(eng, nicCfg, s.Deliver)
	s.dev = dev
	return dev, s
}

// SetTracer wires the request tracer through the receive path: the
// stack records softirq and protocol spans, and every hook point it
// owns — XDP, CPU Redirect, and each group's Socket Select, including
// groups created later — records its verdicts.
func (s *Stack) SetTracer(r *trace.Recorder) {
	s.tracer = r
	s.xdp.SetTracer(r, s.eng.Now)
	s.cpuRedirect.SetTracer(r, s.eng.Now)
	for _, g := range s.groups {
		g.point.SetTracer(r, s.eng.Now)
	}
	for _, g := range s.tcpGroups {
		g.point.SetTracer(r, s.eng.Now)
	}
}

// traceSpan records one lifecycle stage span ending now.
func (s *Stack) traceSpan(pkt *nic.Packet, stage trace.Stage, start sim.Time, cpu int, v trace.Verdict, exec uint32) {
	if !s.tracer.Enabled() {
		return
	}
	s.tracer.Record(trace.Span{
		Req: pkt.ID, Start: start, End: s.eng.Now(), Stage: stage,
		Verdict: v, CPU: int32(cpu), Executor: exec, Port: pkt.DstPort,
	})
}

// SetFaults arms the receive path with a chaos plan's injector (nil
// disarms): SKB allocation failures at backlog admission, helper errors
// through every per-core Env, and socket-select faults at every group's
// hook point — including groups created after this call.
func (s *Stack) SetFaults(inj *faults.Injector) {
	s.faults = inj
	for _, env := range s.envs {
		env.FaultLookupMiss = inj.FireFn(faults.SiteHelperLookup)
		env.FaultUpdateFail = inj.FireFn(faults.SiteHelperUpdate)
		env.FaultTailCall = inj.FireFn(faults.SiteTailCall)
	}
	for _, g := range s.groups {
		g.point.SetFaultInjector(inj.FireFn(faults.SiteSocketSelect))
	}
	for _, g := range s.tcpGroups {
		g.point.SetFaultInjector(inj.FireFn(faults.SiteSocketSelect))
	}
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
	g := NewReuseportGroup(port, app)
	if s.tracer != nil {
		g.point.SetTracer(s.tracer, s.eng.Now)
	}
	if s.faults != nil {
		g.point.SetFaultInjector(s.faults.FireFn(faults.SiteSocketSelect))
	}
	s.groups[port] = g
	return g
}

// LookupGroup returns the group for port, or nil.
func (s *Stack) LookupGroup(port uint16) *ReuseportGroup { return s.groups[port] }

// TCPGroup returns (creating if needed) the TCP listener group for port.
func (s *Stack) TCPGroup(port uint16, app uint32) *TCPGroup {
	if g, ok := s.tcpGroups[port]; ok {
		return g
	}
	g := NewTCPGroup(port, app)
	if s.tracer != nil {
		g.point.SetTracer(s.tracer, s.eng.Now)
	}
	if s.faults != nil {
		g.point.SetFaultInjector(s.faults.FireFn(faults.SiteSocketSelect))
	}
	s.tcpGroups[port] = g
	return g
}

// LookupTCPGroup returns the TCP group for port, or nil.
func (s *Stack) LookupTCPGroup(port uint16) *TCPGroup { return s.tcpGroups[port] }

// HookPoints appends every hook point the stack owns to dst in a fixed
// order: XDP, CPU Redirect, then each UDP and then each TCP reuseport
// group's Socket Select by ascending port.
func (s *Stack) HookPoints(dst []*hook.Point) []*hook.Point {
	dst = append(dst, s.xdp, s.cpuRedirect)
	for _, port := range sortedPorts(s.groups) {
		dst = append(dst, s.groups[port].point)
	}
	for _, port := range sortedPorts(s.tcpGroups) {
		dst = append(dst, s.tcpGroups[port].point)
	}
	return dst
}

func sortedPorts[G any](groups map[uint16]G) []uint16 {
	ports := make([]uint16, 0, len(groups))
	for port := range groups {
		ports = append(ports, port)
	}
	slices.Sort(ports)
	return ports
}

// NewUDPSocket creates a socket bound to port and adds it to the port's
// reuseport group, returning the socket and its executor index.
func (s *Stack) NewUDPSocket(port uint16, app uint32, label string) (*Socket, int) {
	sock := NewSocket(port, app, s.cfg.SocketQueueCap, label)
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

// SocketQueueCap exposes the configured socket queue bound.
func (s *Stack) SocketQueueCap() int { return s.cfg.SocketQueueCap }

// SoftirqBacklog sums the packets queued behind busy softirq cores across
// every RX queue — a live gauge for the telemetry sampler.
func (s *Stack) SoftirqBacklog() int {
	total := 0
	for i := range s.cores {
		total += s.cores[i].backlog
	}
	return total
}

// softirqCost computes one packet's softirq occupancy from an attachment
// snapshot. A detached XDP point (e.g. after a revoke) charges the
// plain-SKB path: nothing runs there.
func (s *Stack) softirqCost(xdpAttached bool) sim.Time {
	switch {
	case s.xdpMode == XDPNative && xdpAttached:
		return s.cfg.PolicyRunCost // pre-SKB, zero-copy
	case s.xdpMode == XDPGeneric && xdpAttached:
		return s.cfg.SKBAllocCost + s.cfg.PolicyRunCost + s.cfg.XSKCopyCost
	default:
		return s.cfg.SKBAllocCost
	}
}

// Deliver is the NIC→host handoff (nic.DeliverFunc). The packet is
// processed serially on its queue's softirq core.
func (s *Stack) Deliver(queue int, pkt *nic.Packet) {
	pkt.SoftirqAt = s.eng.Now()
	core := &s.cores[queue]
	// An injected SKB allocation failure drops exactly where a full
	// backlog would: at admission, before any softirq cost is charged.
	if core.backlog >= s.cfg.BacklogCap || s.faults.Fire(faults.SiteSKBAlloc) {
		s.Stats.BacklogDrops++
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
		if s.dev != nil {
			s.dev.Consumed(queue)
		}
		pkt.Free()
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
		v := s.xdp.Run(hook.Input{Packet: pkt.Bytes(), Hash: pkt.RSSHash(), Port: uint32(pkt.DstPort), Queue: uint32(queue), Req: pkt.ID, Env: s.envs[queue]})
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
		pkt.Free()
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
			pkt.Free()
			return false
		}
		// AF_XDP delivery bypasses protocol processing: the softirq
		// span ends at the socket enqueue.
		s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictSteer, v.Index)
		pkt.EnqueuedAt = s.eng.Now()
		if !table[v.Index].Enqueue(pkt) {
			s.Stats.XSKDrops++
			pkt.Free()
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
		v := s.cpuRedirect.Run(hook.Input{Packet: pkt.Bytes(), Hash: pkt.RSSHash(), Port: uint32(pkt.DstPort), Queue: uint32(queue), Req: pkt.ID, Env: s.envs[queue]})
		switch {
		case v.Faulted || v.Action == hook.Pass:
		case v.Action == hook.Drop:
			s.Stats.PolicyDrops++
			s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
			pkt.Free()
			return
		case int(v.Index) < len(s.cores):
			protoCore = int(v.Index)
		default:
			s.Stats.NoExecutorDrops++
			s.traceSpan(pkt, trace.StageSoftirq, pkt.SoftirqAt, queue, trace.VerdictDrop, 0)
			pkt.Free()
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
	cost := s.cfg.ProtoCost
	if s.cpuRedirect.Attached() {
		cost += s.cfg.PolicyRunCost
	}
	if g, ok := s.groups[pkt.DstPort]; ok && g.point.Attached() {
		// The Socket Select policy runs inline with delivery on this core.
		cost += s.cfg.PolicyRunCost
	}
	if tg, ok := s.tcpGroups[pkt.DstPort]; ok && tg.point.Attached() && (pkt.SYN || tg.kcm) {
		cost += s.cfg.PolicyRunCost
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
	if pkt.TCP {
		tg, ok := s.tcpGroups[pkt.DstPort]
		if !ok {
			s.Stats.NoGroupDrops++
			s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
			pkt.Free()
			return
		}
		// Framed requests enqueue at this instant; deliverRequest copies
		// the stamp onto each request packet it cuts from the stream.
		pkt.EnqueuedAt = s.eng.Now()
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictNone, 0)
		tg.HandleSegment(pkt, pkt.RSSHash(), s.envs[core])
		return
	}
	g, ok := s.groups[pkt.DstPort]
	if !ok {
		s.Stats.NoGroupDrops++
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
		pkt.Free()
		return
	}
	sock, idx, res := g.selectSocket(pkt, pkt.RSSHash(), s.envs[core])
	switch res {
	case dropped:
		s.Stats.PolicyDrops++
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
		pkt.Free()
	case noExecutor:
		s.Stats.NoExecutorDrops++
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictDrop, 0)
		pkt.Free()
	case selected:
		s.traceSpan(pkt, trace.StageProto, pkt.ProtoAt, core, trace.VerdictSteer, uint32(idx))
		pkt.EnqueuedAt = s.eng.Now()
		if g.lateBinding {
			if !g.lateEnqueue(pkt) {
				s.Stats.SocketDrops++
				pkt.Free()
			}
		} else if !sock.Enqueue(pkt) {
			s.Stats.SocketDrops++
			pkt.Free()
		}
	}
}

// String summarizes stats for debugging.
func (s *Stats) String() string {
	return fmt.Sprintf("processed=%d backlog-drops=%d socket-drops=%d policy-drops=%d no-exec=%d xsk=%d",
		s.Processed, s.BacklogDrops, s.SocketDrops, s.PolicyDrops, s.NoExecutorDrops, s.XSKDelivered)
}
