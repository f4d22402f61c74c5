// Package trace is the cross-stack request tracer: a ring-buffer-backed
// span recorder driven by the simulator clock. Every layer a request
// crosses — NIC arrival/RSS/XDP verdict, netstack softirq + protocol
// work, SO_REUSEPORT/AF_XDP socket selection, kernel runqueue wait,
// on-CPU service, and ghOSt agent message→commit round-trips — records
// one Span per stage, tagged with the hook point and the eBPF policy
// verdict that produced the routing decision.
//
// The recorder is built for a zero-allocation steady state: Span holds
// only scalars and string headers (hook/policy names are static), the
// ring is preallocated at construction, and per-stage histograms use
// metrics.Histogram's fixed bucket array. Record on a nil recorder is a
// branch and a return, so instrumented layers carry no cost when tracing
// is off; the gates in trace_test.go and
// internal/sim enforce both properties under `make check`.
//
// The recorder never schedules events and never consumes PRNG draws, so
// a traced run is behavior-identical to an untraced one — the
// golden-figure test in internal/experiments pins that down.
package trace

import (
	"syrup/internal/metrics"
	"syrup/internal/sim"
)

// Stage identifies the lifecycle stage a span measures. The first five
// stages decompose a request's end-to-end latency into disjoint,
// contiguous intervals (see DESIGN.md "Trace format"): their durations
// plus twice the wire delay sum exactly to the client-observed latency.
// StageRunqueue is contained inside StageSocket (the enqueue wakes the
// worker thread), so it is reported as a sub-stage and excluded from
// reconciliation sums. StageGhost and StageHook are control-plane
// spans, not part of the request datapath decomposition.
type Stage uint8

const (
	// StageNIC: packet arrival to ring handoff (RSS hash, XDP offload
	// verdict, per-queue ring admission).
	StageNIC Stage = iota
	// StageSoftirq: backlog wait plus SKB allocation / XDP program /
	// XSK copy work on the softirq core.
	StageSoftirq
	// StageProto: protocol processing (UDP demux) ending at the
	// socket-selection verdict.
	StageProto
	// StageSocket: socket queue wait, enqueue to worker dequeue.
	StageSocket
	// StageRunqueue: worker thread wakeup to dispatch on a CPU.
	// Contained within StageSocket; excluded from sum reconciliation.
	StageRunqueue
	// StageOnCPU: request service on the worker thread, dequeue to
	// completion.
	StageOnCPU
	// StageGhost: ghOSt agent activity — message-batch processing and
	// placement commit round-trips.
	StageGhost
	// StageHook: an eBPF policy decision at a hook point (instant).
	StageHook

	numStages = int(StageHook) + 1
)

var stageNames = [numStages]string{
	"nic", "softirq", "proto", "socket", "runqueue", "oncpu", "ghost", "hook",
}

// String returns the stage's short name.
func (s Stage) String() string {
	if int(s) < numStages {
		return stageNames[s]
	}
	return "unknown"
}

var stageCategories = [numStages]string{
	"nic", "netstack", "netstack", "socket", "runqueue", "oncpu", "ghost", "hook",
}

// Category maps the stage to its Chrome-trace category. Softirq and
// protocol work share the "netstack" category; everything else is its
// own track color.
func (s Stage) Category() string {
	if int(s) < numStages {
		return stageCategories[s]
	}
	return "unknown"
}

// Stages lists the lifecycle stages whose durations decompose
// end-to-end latency (disjoint and contiguous, in request order).
// StageRunqueue is deliberately absent: it overlaps StageSocket.
var Stages = [...]Stage{StageNIC, StageSoftirq, StageProto, StageSocket, StageOnCPU}

// Verdict records the eBPF policy outcome attached to a span.
type Verdict uint8

const (
	// VerdictNone: no policy ran at this stage.
	VerdictNone Verdict = iota
	// VerdictPass: policy passed the packet to the default path.
	VerdictPass
	// VerdictDrop: policy dropped the request.
	VerdictDrop
	// VerdictSteer: policy steered to Executor (queue, socket, CPU...).
	VerdictSteer
	// VerdictFault: policy faulted; the layer fell open.
	VerdictFault
)

var verdictNames = [...]string{"", "pass", "drop", "steer", "fault"}

// String returns the verdict's short name ("" for VerdictNone).
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "unknown"
}

// Span is one recorded interval (or instant) in a request's life. All
// fields are scalars or string headers pointing at static names, so
// copying a Span into the ring does not allocate.
type Span struct {
	Req      uint64   // request/packet ID (0 when not request-scoped)
	Start    sim.Time // stage entry, simulated ns
	End      sim.Time // stage exit; == Start for instants
	Hook     string   // hook point name, "" when no policy ran
	Policy   string   // policy/program name, "" when no policy ran
	Stage    Stage
	Verdict  Verdict
	CPU      int32  // CPU / NIC queue / softirq core the span ran on
	Executor uint32 // steering target index when Verdict == VerdictSteer
	Port     uint16 // destination port, 0 when unknown
	Err      bool   // the policy faulted (fall-open path)
	Instant  bool   // point event: ring-only, excluded from histograms
}

// Recorder accumulates spans in a fixed-capacity ring (newest
// overwrites oldest) and per-stage duration histograms (which see every
// span, so latency breakdowns stay exact even after the ring wraps).
// A nil *Recorder is valid and records nothing.
//
// Recorder is not thread-safe: use one per simulated host (experiment
// sweeps run hosts on parallel goroutines).
type Recorder struct {
	spans []Span
	next  int
	total uint64
	hists [numStages]*metrics.Histogram
}

// DefaultCapacity is the ring size used when New is given n <= 0.
const DefaultCapacity = 1 << 16

// New returns a Recorder whose ring holds capacity spans
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{spans: make([]Span, 0, capacity)}
	for i := range r.hists {
		r.hists[i] = metrics.NewHistogram()
	}
	return r
}

// Enabled reports whether Record will keep spans: whether r is non-nil.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends a span. On a nil recorder it is a no-op;
// on the steady state (ring at capacity) it performs zero allocations.
// Non-instant spans also feed the stage's duration histogram.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.spans[r.next] = s
		r.next++
		if r.next == len(r.spans) {
			r.next = 0
		}
	}
	r.total++
	if !s.Instant && int(s.Stage) < numStages {
		r.hists[s.Stage].Record(int64(s.End - s.Start))
	}
}

// Total reports how many spans were ever recorded (including ones the
// ring has since overwritten). Nil-safe.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped reports how many spans the ring overwrote. Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(len(r.spans))
}

// Spans returns a copy of the ring's contents, oldest first. Nil-safe.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// StageHistogram returns the duration histogram for a lifecycle stage,
// or nil on a nil recorder / out-of-range stage.
func (r *Recorder) StageHistogram(s Stage) *metrics.Histogram {
	if r == nil || int(s) >= numStages {
		return nil
	}
	return r.hists[s]
}

// SpanJSON is the wire form of a Span for syrupd's trace op: stage and
// verdict as strings, times in integral nanoseconds.
type SpanJSON struct {
	Req      uint64 `json:"req"`
	Stage    string `json:"stage"`
	Category string `json:"cat"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	CPU      int32  `json:"cpu"`
	Port     uint16 `json:"port,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
	Executor uint32 `json:"executor,omitempty"`
	Hook     string `json:"hook,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Err      bool   `json:"err,omitempty"`
	Instant  bool   `json:"instant,omitempty"`
}

// JSON converts the span to its wire form.
func (s Span) JSON() SpanJSON {
	return SpanJSON{
		Req:      s.Req,
		Stage:    s.Stage.String(),
		Category: s.Stage.Category(),
		StartNS:  int64(s.Start),
		DurNS:    int64(s.End - s.Start),
		CPU:      s.CPU,
		Port:     s.Port,
		Verdict:  s.Verdict.String(),
		Executor: s.Executor,
		Hook:     s.Hook,
		Policy:   s.Policy,
		Err:      s.Err,
		Instant:  s.Instant,
	}
}
