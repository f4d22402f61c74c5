// Package nic models the network interface card: RX queues with bounded
// descriptor rings, RSS hash steering with an indirection table, and — for
// the Syrup XDP Offload hook — an on-NIC eBPF engine that runs a verified
// program against each arriving frame to pick its RX queue, exactly as the
// paper does on the Netronome Agilio CX (§5.4). On-NIC maps are reachable
// from the host through a proxy that charges the ≈25 µs PCIe round trip
// Table 3 reports.
package nic

import (
	"encoding/binary"
	"fmt"

	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// Packet is one network frame moving through the simulated host. The bytes
// visible to eBPF policies are UDP header (8 bytes) + application payload,
// matching the view the paper's policies parse (e.g., Fig. 3 hashes the
// udphdr at pkt_start).
type Packet struct {
	ID uint64

	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16

	// TCP marks the packet as a TCP segment (default is a UDP datagram);
	// SYN marks a connection-establishing segment.
	TCP bool
	SYN bool

	Payload []byte

	// SentAt is the client-side send timestamp (for end-to-end latency).
	SentAt sim.Time
	// ArrivedAt is stamped by the NIC on reception.
	ArrivedAt sim.Time
	// SoftirqAt, ProtoAt, and EnqueuedAt mark the start of softirq work,
	// the start of protocol processing, and the socket enqueue. The stack
	// writes them on every packet, tracing or not; they give per-stage
	// spans exact boundaries.
	SoftirqAt  sim.Time
	ProtoAt    sim.Time
	EnqueuedAt sim.Time
	// Queue is the RX queue the NIC placed the packet on.
	Queue int

	// wire caches the policy-visible byte view (see Bytes).
	wire []byte

	// hdr is scratch storage for small generated payloads (see HeaderBuf)
	// and view is the storage wire points into when the payload fits hdr,
	// so a generated request carries both inline.
	hdr  [32]byte
	view [8 + 32]byte

	// owner is the device whose free list issued the packet and takes it
	// back (see NIC.NewPacket, Free); nil for a literal packet. next links
	// the free list; freed marks a packet sitting on it.
	owner *NIC
	next  *Packet
	freed bool
}

// Packets are recycled per device by their one owner, the way XDP's
// page_pool recycles buffers per RX queue: the host is single-threaded, so
// the free list is a plain intrusive chain on the NIC and the datapath
// takes no lock and touches no shared state per packet. The list grows a
// slab at a time and New adds the first: the ledger's workloads keep under
// 128 packets in flight per host, so theirs are in place before a run
// starts, and a host deep in overload grows a few slabs while it runs.
const packetSlab = 256

// NewPacket returns a zeroed Packet from the device's free list. Packets
// obtained here should be released with Free at their terminal point;
// packets built with a plain literal are ordinary GC-managed values and
// Free ignores them, so the two allocation styles mix safely.
func (n *NIC) NewPacket() *Packet {
	if n.free == nil {
		n.growPackets()
	}
	p := n.free
	n.free, p.next = p.next, nil
	p.freed = false
	return p
}

// growPackets adds one slab of packets to the free list.
func (n *NIC) growPackets() {
	slab := make([]Packet, packetSlab)
	for i := range slab {
		p := &slab[i]
		p.owner, p.freed = n, true
		p.next, n.free = n.free, p
	}
}

// HeaderBuf returns the packet's inline scratch buffer (length 0), for
// building small payloads without a separate heap allocation:
// pkt.Payload = append(pkt.HeaderBuf(), ...).
func (p *Packet) HeaderBuf() []byte { return p.hdr[:0] }

// Free returns the packet to the free list of the device that issued it.
// Only terminal owners may call it — the layer that drops the packet or
// the server that finished serving it — and only once; a second Free of a
// live device packet is a datapath ownership bug and panics. Free on a
// literal packet is a no-op.
func (p *Packet) Free() {
	n := p.owner
	if n == nil {
		return
	}
	if p.freed {
		panic(fmt.Sprintf("nic: double Free of packet %d", p.ID))
	}
	wire := p.wire
	*p = Packet{owner: n, next: n.free, freed: true}
	if cap(wire) > len(p.view) {
		p.wire = wire[:0] // a heap view outlives the request that needed it
	}
	n.free = p
}

// Bytes renders the policy-visible view: an 8-byte UDP header followed by
// the payload. The slice is cached; policies may write to it (XDP allows
// packet writes) and later hooks will observe those writes. The view is
// built in the packet's own storage when it fits; a larger payload takes a
// heap buffer, which a recycled packet keeps and rebuilds into.
func (p *Packet) Bytes() []byte {
	if len(p.wire) == 0 {
		need := 8 + len(p.Payload)
		switch {
		case need <= len(p.view):
			p.wire = p.view[:need]
		case cap(p.wire) < need:
			p.wire = make([]byte, need)
		default:
			p.wire = p.wire[:need]
		}
		binary.BigEndian.PutUint16(p.wire[0:], p.SrcPort)
		binary.BigEndian.PutUint16(p.wire[2:], p.DstPort)
		binary.BigEndian.PutUint16(p.wire[4:], uint16(8+len(p.Payload)))
		// Bytes 6-7: checksum, left zero.
		p.wire[6], p.wire[7] = 0, 0
		copy(p.wire[8:], p.Payload)
	}
	return p.wire
}

// FNV-1a, hand-rolled: hash/fnv's digest allocates per packet and its
// Write call can't inline; this produces bit-identical values.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// RSSHash is the NIC's receive-side-scaling hash over the 5-tuple
// (deterministic stand-in for Toeplitz). The 13 hashed bytes are src IP,
// dst IP, src port, dst port (big-endian) and the protocol number.
func (p *Packet) RSSHash() uint32 {
	h := uint32(fnvOffset32)
	h = (h ^ uint32(byte(p.SrcIP>>24))) * fnvPrime32
	h = (h ^ uint32(byte(p.SrcIP>>16))) * fnvPrime32
	h = (h ^ uint32(byte(p.SrcIP>>8))) * fnvPrime32
	h = (h ^ uint32(byte(p.SrcIP))) * fnvPrime32
	h = (h ^ uint32(byte(p.DstIP>>24))) * fnvPrime32
	h = (h ^ uint32(byte(p.DstIP>>16))) * fnvPrime32
	h = (h ^ uint32(byte(p.DstIP>>8))) * fnvPrime32
	h = (h ^ uint32(byte(p.DstIP))) * fnvPrime32
	h = (h ^ uint32(byte(p.SrcPort>>8))) * fnvPrime32
	h = (h ^ uint32(byte(p.SrcPort))) * fnvPrime32
	h = (h ^ uint32(byte(p.DstPort>>8))) * fnvPrime32
	h = (h ^ uint32(byte(p.DstPort))) * fnvPrime32
	proto := byte(17)
	if p.TCP {
		proto = 6
	}
	return (h ^ uint32(proto)) * fnvPrime32
}

// Config sets NIC geometry and costs.
type Config struct {
	Queues int
	// RingSize bounds each RX queue's descriptor ring (packets dropped on
	// overflow, as when the host cannot keep up).
	RingSize int
	// OffloadCost is the on-NIC per-packet program cost. NIC engines are
	// heavily parallel, so this models added wire latency rather than a
	// serial bottleneck.
	OffloadCost sim.Time
	// HostMapRTT is the host↔NIC round trip for map operations on
	// offloaded maps (Table 3 measures ≈25 µs on the Netronome).
	HostMapRTT sim.Time
	// Deprecated: Budget has no effect; kept only until a benchmark-archetype PR stops setting it.
	Budget int
}

func (c *Config) fill() {
	if c.Queues == 0 {
		c.Queues = 1
	}
	if c.RingSize == 0 {
		c.RingSize = 1024
	}
	if c.OffloadCost == 0 {
		c.OffloadCost = 300 * sim.Nanosecond
	}
	if c.HostMapRTT == 0 {
		c.HostMapRTT = 25 * sim.Microsecond
	}
}

// DeliverFunc receives packets the NIC has placed on a queue; the host
// (softirq) side consumes them. A packet stays accounted against its ring
// until the host calls Consumed for it.
type DeliverFunc func(queue int, pkt *Packet)

// Stats counts NIC-level events.
type Stats struct {
	Received     uint64
	DroppedRing  uint64
	DroppedByXDP uint64
	OffloadRuns  uint64
	// OffloadFaults counts offload-program runtime errors. A verified
	// program faulting means a verifier escape; the packet fails open to
	// RSS, but the escape must be visible, not silently read as PASS.
	OffloadFaults uint64
}

// NIC is the simulated device.
type NIC struct {
	eng *sim.Engine
	cfg Config

	rssTable []int // 128-entry indirection table

	// offload is the XDP Offload hook point: it owns the installed
	// program, the NIC-side Env, and the reusable scratch Ctx.
	offload *hook.Point

	// inflight counts packets handed to the host but not yet consumed,
	// per queue; it bounds the ring.
	inflight []int

	deliver DeliverFunc
	// deliverCB is the stored closure-free callback for the delivery event
	// (arg = *Packet, u = queue), so Receive schedules without allocating.
	deliverCB sim.Callback

	// tracer, when enabled, receives one StageNIC span per packet
	// (arrival to ring handoff, including offload-engine latency).
	tracer *trace.Recorder

	// faults, when armed by a chaos plan, injects RX ring overflows; the
	// offload hook point and NIC-side Env carry their own triggers.
	faults *faults.Injector

	// free heads the packet free list (see NewPacket).
	free *Packet

	Stats Stats
}

// New creates a NIC; deliver is invoked (via the event loop) for every
// packet that survives steering.
func New(eng *sim.Engine, cfg Config, deliver DeliverFunc) *NIC {
	cfg.fill()
	n := &NIC{eng: eng, cfg: cfg, deliver: deliver, inflight: make([]int, cfg.Queues)}
	n.deliverCB = func(arg any, u uint64) { n.deliver(int(u), arg.(*Packet)) }
	n.rssTable = make([]int, 128)
	for i := range n.rssTable {
		n.rssTable[i] = i % cfg.Queues
	}
	n.offload = hook.NewPoint(string(hook.XDPOffload), &ebpf.Env{
		Prandom: func() uint32 { return eng.Rand().Uint32() },
		Ktime:   func() uint64 { return uint64(eng.Now()) },
	})
	n.growPackets()
	return n
}

// NumQueues reports the RX queue count.
func (n *NIC) NumQueues() int { return n.cfg.Queues }

// InflightTotal sums the packets handed to the host but not yet consumed
// across every queue — a live gauge for the telemetry sampler.
func (n *NIC) InflightTotal() int {
	total := 0
	for _, v := range n.inflight {
		total += v
	}
	return total
}

// Offload exposes the XDP Offload hook point; syrupd attaches through it.
func (n *NIC) Offload() *hook.Point { return n.offload }

// SetTracer wires the request tracer through the device: the NIC
// records arrival→handoff spans and the offload hook point records its
// verdicts.
func (n *NIC) SetTracer(r *trace.Recorder) {
	n.tracer = r
	n.offload.SetTracer(r, n.eng.Now)
}

// SetFaults arms the device with a chaos plan's injector (nil disarms):
// ring overflows on SiteNICRing, offload-engine faults on SiteOffload,
// and helper errors inside offloaded programs through the NIC-side Env.
func (n *NIC) SetFaults(inj *faults.Injector) {
	n.faults = inj
	n.offload.SetFaultInjector(inj.FireFn(faults.SiteOffload))
	env := n.offload.Env()
	env.FaultLookupMiss = inj.FireFn(faults.SiteHelperLookup)
	env.FaultUpdateFail = inj.FireFn(faults.SiteHelperUpdate)
	env.FaultTailCall = inj.FireFn(faults.SiteTailCall)
}

// Receive is called at the packet's wire-arrival time. It runs offloaded
// steering, applies RSS otherwise, and hands the packet to the host after
// the device-side costs.
func (n *NIC) Receive(pkt *Packet) {
	n.Stats.Received++
	pkt.ArrivedAt = n.eng.Now()
	hash := pkt.RSSHash()
	queue := n.rssTable[hash%uint32(len(n.rssTable))]
	extra := sim.Time(0)

	if n.offload.Attached() {
		n.Stats.OffloadRuns++
		extra = n.cfg.OffloadCost
		v := n.offload.Run(hook.Input{
			Packet: pkt.Bytes(),
			Hash:   hash,
			Port:   uint32(pkt.DstPort),
			Queue:  uint32(queue),
			Req:    pkt.ID,
		})
		switch {
		case v.Faulted:
			n.Stats.OffloadFaults++ // fail open: keep RSS choice
		case v.Action == hook.Drop:
			n.Stats.DroppedByXDP++
			n.traceNIC(pkt, pkt.ArrivedAt, queue, trace.VerdictDrop)
			pkt.Free()
			return
		case v.Action == hook.Pass:
			// keep RSS choice
		case int(v.Index) < n.cfg.Queues:
			queue = int(v.Index)
		default:
			// Out-of-range executor index: no such queue.
			n.Stats.DroppedByXDP++
			n.traceNIC(pkt, pkt.ArrivedAt, queue, trace.VerdictDrop)
			pkt.Free()
			return
		}
	}

	// An injected ring overflow drops exactly where a full ring would.
	if n.inflight[queue] >= n.cfg.RingSize || n.faults.Fire(faults.SiteNICRing) {
		n.Stats.DroppedRing++
		n.traceNIC(pkt, pkt.ArrivedAt, queue, trace.VerdictDrop)
		pkt.Free()
		return
	}
	n.inflight[queue]++
	pkt.Queue = queue
	n.traceNIC(pkt, pkt.ArrivedAt+extra, queue, trace.VerdictNone)
	n.eng.CallAfter(extra, n.deliverCB, pkt, uint64(queue))
}

// Deprecated: SetBatchDeliver has no effect; kept only until a benchmark-archetype PR stops calling it.
func (n *NIC) SetBatchDeliver(fn func(queue int, pkts []*Packet)) {}

// traceNIC records the packet's StageNIC span: arrival to ring handoff
// (end includes the offload engine's added latency); drops end at the
// drop decision with a drop verdict.
func (n *NIC) traceNIC(pkt *Packet, end sim.Time, queue int, v trace.Verdict) {
	if !n.tracer.Enabled() {
		return
	}
	n.tracer.Record(trace.Span{
		Req: pkt.ID, Start: pkt.ArrivedAt, End: end, Stage: trace.StageNIC,
		Verdict: v, CPU: int32(queue), Port: pkt.DstPort,
	})
}

// Consumed tells the NIC the host finished taking a packet off a ring.
func (n *NIC) Consumed(queue int) {
	if n.inflight[queue] <= 0 {
		panic(fmt.Sprintf("nic: Consumed on empty ring %d", queue))
	}
	n.inflight[queue]--
}

// OffloadedMap wraps an on-NIC map with host-access latency: every
// operation issued from the host completes after the PCIe round trip, while
// the NIC-side program keeps memory-speed access (Table 3). Host-side calls
// are asynchronous because they consume simulated time.
type OffloadedMap struct {
	eng *sim.Engine
	rtt sim.Time
	// The far end of the round trip, one stored callback per operation:
	// arg is the caller's done func (lookup) or the pending write.
	lookupCB, updateCB sim.Callback
}

// offloadWrite is a host-issued update in flight over PCIe.
type offloadWrite struct {
	v    uint64
	done func(err error)
}

// OffloadMap declares m as living on the NIC.
func (n *NIC) OffloadMap(m *ebpf.Map) *OffloadedMap {
	return &OffloadedMap{
		eng: n.eng, rtt: n.cfg.HostMapRTT,
		lookupCB: func(done any, key uint64) {
			done.(func(uint64, bool))(m.LookupUint64(uint32(key)))
		},
		updateCB: func(arg any, key uint64) {
			w := arg.(*offloadWrite)
			err := m.UpdateUint64(uint32(key), w.v)
			if w.done != nil {
				w.done(err)
			}
		},
	}
}

// LookupUint64 reads key from the host; done receives the value after the
// round trip.
func (o *OffloadedMap) LookupUint64(key uint32, done func(v uint64, ok bool)) {
	o.eng.CallAfter(o.rtt, o.lookupCB, done, uint64(key))
}

// UpdateUint64 writes key from the host; done (optional) fires after the
// round trip.
func (o *OffloadedMap) UpdateUint64(key uint32, v uint64, done func(err error)) {
	o.eng.CallAfter(o.rtt, o.updateCB, &offloadWrite{v: v, done: done}, uint64(key))
}
