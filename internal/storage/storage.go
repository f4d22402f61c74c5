// Package storage extends Syrup's matching abstraction to storage, the
// first extension §6.1 calls out: inputs are IO requests, executors are
// NVMe submission queues. The same verified policy machinery gates
// submissions — in fact the unmodified token.syr policy file provides
// Reflex-style multi-tenant IOPS admission control (§6.1: "the token-based
// policy we evaluate in §5.2 is very similar to the one used by ReFlex for
// IO request scheduling in flash devices").
//
// The device model is a flash SSD: per-queue serial submission streams
// with asymmetric read/program costs and bounded queue depth.
package storage

import (
	"syrup/internal/hook"
	"syrup/internal/metrics"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// Kind is the IO operation type.
type Kind int

// IO kinds.
const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Request is one IO submission.
type Request struct {
	ID     uint64
	Tenant uint32
	Kind   Kind
	LBA    uint64

	SubmittedAt sim.Time
}

// header renders the request in the same wire layout packet policies
// parse (8-byte pseudo header + application header), so policy files are
// portable between the network hooks and the storage hook.
func (r *Request) header() []byte {
	reqType := policy.ReqGET
	if r.Kind == Write {
		reqType = policy.ReqPUT
	}
	payload := policy.EncodeHeader(reqType, r.Tenant, uint32(r.LBA), r.ID)
	wire := make([]byte, 8+len(payload))
	copy(wire[8:], payload)
	return wire
}

// The flash model, calibrated in DESIGN.md "Calibration constants"; a
// submit-hook run costs hook.RunCost on top.
const (
	// queueDepth bounds outstanding requests per queue.
	queueDepth = 64
	// readCost and writeCost are per-4K flash costs (≈85 µs read, ≈450 µs
	// program).
	readCost  = 85 * sim.Microsecond
	writeCost = 450 * sim.Microsecond
)

// Config describes the device.
type Config struct {
	// Queues is the NVMe submission queue count (the executor set).
	Queues int
	// OnComplete reports finished IOs.
	OnComplete func(req *Request, finish sim.Time)
}

func (c *Config) fill() {
	if c.Queues == 0 {
		c.Queues = 4
	}
}

// Stats counts device events. A policy's DROPs (admission rejects) are
// its submit hook point's (SubmitHook().Stats()).
type Stats struct {
	Submitted    uint64
	Completed    uint64
	RejectedFull uint64
	NoExecutor   uint64
}

// AppendCounters appends the device's counters to dst as storage_<field>.
func (d *Device) AppendCounters(dst []metrics.CounterValue) []metrics.CounterValue {
	return append(dst,
		metrics.CounterValue{Name: "storage_submitted", Value: d.Stats.Submitted},
		metrics.CounterValue{Name: "storage_completed", Value: d.Stats.Completed},
		metrics.CounterValue{Name: "storage_rejected_full", Value: d.Stats.RejectedFull},
		metrics.CounterValue{Name: "storage_no_executor", Value: d.Stats.NoExecutor})
}

// Device is the simulated SSD with a Syrup submit hook.
type Device struct {
	eng *sim.Engine
	cfg Config

	queues []ioQueue
	// submit is the device's submit hook point: it owns the installed
	// program, the device Env, and the reusable scratch Ctx.
	submit *hook.Point

	// completeCB is the stored closure-free callback for the per-request
	// completion event (arg = *Request, u = queue), so Submit schedules
	// without allocating.
	completeCB sim.Callback

	Stats Stats
}

type ioQueue struct {
	busyUntil sim.Time
	depth     int
}

// NewDevice creates the device of host h: its submit hook records spans
// to, and its policies' helpers fault under, the host's tracer and chaos
// plan.
func NewDevice(h *hook.Host, cfg Config) *Device {
	cfg.fill()
	d := &Device{
		eng:    h.Eng,
		cfg:    cfg,
		queues: make([]ioQueue, cfg.Queues),
		submit: hook.NewPoint(h, string(hook.Storage), ""),
	}
	d.completeCB = func(arg any, u uint64) {
		d.queues[u].depth--
		d.Stats.Completed++
		if d.cfg.OnComplete != nil {
			d.cfg.OnComplete(arg.(*Request), d.eng.Now())
		}
	}
	return d
}

// SubmitHook exposes the device's submit hook point; syrupd attaches
// through it. A program's verdict is a queue index, PASS (default LBA
// striping), or DROP (admission reject).
func (d *Device) SubmitHook() *hook.Point { return d.submit }

// Submit runs the policy and, if admitted, enqueues the IO. It reports
// whether the request was accepted.
func (d *Device) Submit(req *Request) bool {
	d.Stats.Submitted++
	req.SubmittedAt = d.eng.Now()
	queue := int(req.LBA) % d.cfg.Queues

	if d.submit.Attached() {
		v := d.submit.Run(hook.Input{Packet: req.header(), Hash: uint32(req.LBA), Port: uint32(req.Tenant)})
		switch {
		case v.Action == hook.Drop:
			return false
		case v.Action == hook.Pass:
			// LBA striping; a faulted run fails open here, like the network hooks
		case int(v.Index) < d.cfg.Queues:
			queue = int(v.Index)
		default:
			d.Stats.NoExecutor++
			return false
		}
	}

	q := &d.queues[queue]
	if q.depth >= queueDepth {
		d.Stats.RejectedFull++
		return false
	}
	q.depth++

	cost := readCost
	if req.Kind == Write {
		cost = writeCost
	}
	if d.submit.Attached() {
		cost += hook.RunCost
	}
	now := d.eng.Now()
	start := q.busyUntil
	if start < now {
		start = now
	}
	done := start + cost
	q.busyUntil = done
	d.eng.CallAt(done, d.completeCB, req, uint64(queue))
	return true
}
