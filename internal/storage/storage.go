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
	"fmt"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
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

// Config describes the device.
type Config struct {
	// Queues is the NVMe submission queue count (the executor set).
	Queues int
	// QueueDepth bounds outstanding requests per queue.
	QueueDepth int
	// ReadCost and WriteCost are per-4K flash costs (≈85 µs read, ≈450 µs
	// program).
	ReadCost  sim.Time
	WriteCost sim.Time
	// PolicyRunCost is charged per submit-hook invocation.
	PolicyRunCost sim.Time
	// OnComplete reports finished IOs.
	OnComplete func(req *Request, finish sim.Time)
}

func (c *Config) fill() {
	if c.Queues == 0 {
		c.Queues = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.ReadCost == 0 {
		c.ReadCost = 85 * sim.Microsecond
	}
	if c.WriteCost == 0 {
		c.WriteCost = 450 * sim.Microsecond
	}
	if c.PolicyRunCost == 0 {
		c.PolicyRunCost = 700 * sim.Nanosecond
	}
}

// Stats counts device events.
type Stats struct {
	Submitted        uint64
	Completed        uint64
	RejectedByPolicy uint64
	RejectedFull     uint64
	NoExecutor       uint64
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

// NewDevice creates the device.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	cfg.fill()
	d := &Device{
		eng:    eng,
		cfg:    cfg,
		queues: make([]ioQueue, cfg.Queues),
		submit: hook.NewPoint(string(hook.Storage), &ebpf.Env{
			Prandom: func() uint32 { return eng.Rand().Uint32() },
			Ktime:   func() uint64 { return uint64(eng.Now()) },
		}),
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

// SetPolicy installs the submit-hook program (nil clears), attaching/
// replacing/detaching through the hook point. The verdict is a queue
// index, PASS (default LBA striping), or DROP (admission reject).
func (d *Device) SetPolicy(p *ebpf.Program) { d.submit.Set(p) }

// Submit exposes the device's submit hook point; syrupd attaches through
// it.
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
		case v.Faulted:
			// fail-open, like the network hooks (faults counted by the point)
		case v.Action == hook.Drop:
			d.Stats.RejectedByPolicy++
			return false
		case v.Action == hook.Pass:
		case int(v.Index) < d.cfg.Queues:
			queue = int(v.Index)
		default:
			d.Stats.NoExecutor++
			return false
		}
	}

	q := &d.queues[queue]
	if q.depth >= d.cfg.QueueDepth {
		d.Stats.RejectedFull++
		return false
	}
	q.depth++

	cost := d.cfg.ReadCost
	if req.Kind == Write {
		cost = d.cfg.WriteCost
	}
	if d.submit.Attached() {
		cost += d.cfg.PolicyRunCost
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

// String summarizes stats.
func (s Stats) String() string {
	return fmt.Sprintf("submitted=%d completed=%d rejected(policy=%d full=%d noexec=%d)",
		s.Submitted, s.Completed, s.RejectedByPolicy, s.RejectedFull, s.NoExecutor)
}
