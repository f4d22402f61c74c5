// Package hook is the unified hook-point framework every layer of the
// stack registers into: the one matching-function abstraction (paper §3,
// Fig. 4) deployed behind one attachment mechanism.
//
// A Point is a named slot at a layer (the NIC's offload engine, a
// reuseport group's socket-select, the storage device's submit path, the
// ghOSt agent's thread hook). It owns the installed program, a reusable
// scratch Ctx and Env — so the per-packet path allocates nothing — and
// per-point run/fault/verdict counters; the program runs on the run state
// it owns itself. The counters are plain fields read through Stats; the
// host that owns the point publishes them (syrupd.Daemon.Counters) as
// ebpf_hook_runs_<point> and ebpf_hook_faults_<point>.
//
// A point is built on its Host, the per-host context every layer shares:
// each run reads the host's tracer and chaos injector where it uses them,
// so arming either once reaches every point, points built later included.
//
// Attach returns a Link — an owned, detachable, atomically-replaceable
// attachment object modeled on the kernel's bpf_link. Link.Replace swaps
// the running program between event-loop callbacks, so a policy can be
// upgraded live under traffic without a packet ever seeing an empty slot
// (the paper's dynamic redeployment story, §4.3); Link.Detach empties the
// slot so the layer falls back to its default (RSS, hash reuseport, LBA
// striping), which is what syrupd's RevokeApp leans on to tear a tenant
// out of every layer at once.
//
// Like the rest of the simulated host, a Point is driven from the
// single-threaded event loop and is not safe for concurrent use, reads of
// its Stats included (syrupd reads them on the loop that runs the host).
package hook

import (
	"errors"
	"fmt"
	"strings"

	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/obs"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// Host is one simulated host's context: its event engine and the ambient
// services every layer reaches through it, the request tracer, the chaos
// injector and the telemetry sampler. Everything that uses one is
// built on the Host and reads it there, the way bpf_ktime_get_ns and
// bpf_get_prandom_u32 are one host-wide environment every attach point
// calls rather than state pushed into each. Nil services (the default)
// record, inject and sample nothing.
type Host struct {
	Eng    *sim.Engine
	Tracer *trace.Recorder
	Faults *faults.Injector
	Obs    *obs.Sampler
}

// RunCost is the decision+enforcement time a layer charges per policy run
// (Table 2 measures ≈1.6 k cycles ≈ 0.7 µs at 2.3 GHz).
const RunCost = 700 * sim.Nanosecond

// Action classifies a hook run's outcome for the layer.
type Action int

// Actions.
const (
	// Pass means fall back to the layer default (RSS, hash select, ...).
	Pass Action = iota
	// Drop means discard the input.
	Drop
	// Steer means deliver to executor Index; the layer range-checks the
	// index against its executor table.
	Steer
)

// Verdict is the framework-level result of one hook invocation.
type Verdict struct {
	Action Action
	// Index is the chosen executor when Action == Steer.
	Index uint32
	// Faulted records that the program hit a runtime error (an exhausted
	// tail-call budget, an injected fault or a verifier escape). The
	// action is Pass — hooks fail open, as in the kernel — but the fault
	// is counted so escapes are visible instead of silently reading as
	// policy PASSes.
	Faulted bool
}

// Trace classifies the verdict for a trace span: the trace-level
// verdict plus the chosen executor (0 unless Steer).
func (v Verdict) Trace() (trace.Verdict, uint32) {
	switch {
	case v.Faulted:
		return trace.VerdictFault, 0
	case v.Action == Drop:
		return trace.VerdictDrop, 0
	case v.Action == Steer:
		return trace.VerdictSteer, v.Index
	default:
		return trace.VerdictPass, 0
	}
}

// Input is one hook invocation's arguments. CPU is the core the run
// executes on, what get_smp_processor_id reads (the netstack passes the
// softirq core). Req carries the request/packet ID for trace attribution
// only — programs never see it.
type Input struct {
	Packet []byte
	Hash   uint32
	Port   uint32
	Queue  uint32
	Req    uint64
	CPU    uint32
}

// Stats is cumulative per-point (or per-link) accounting.
type Stats struct {
	Runs   uint64 // program (or userspace policy) invocations
	Faults uint64 // runtime errors, counted and failed open
	Passes uint64 // PASS verdicts (excluding faults)
	Drops  uint64 // DROP verdicts
	Steers uint64 // executor-index verdicts
}

// add folds a run's (or a burst's) accounting into s.
func (s *Stats) add(d Stats) {
	s.Runs += d.Runs
	s.Faults += d.Faults
	s.Passes += d.Passes
	s.Drops += d.Drops
	s.Steers += d.Steers
}

// errInjected marks a fault-injected run on the shared error path.
var errInjected = errors.New("hook: injected fault")

// Point is one hook slot at one layer.
type Point struct {
	name string
	host *Host
	// site is the chaos seam fired before each run ("" for none): a firing
	// makes the run a counted fault that falls open without the program
	// ever running (an offload engine or select path failing under the
	// policy, not the policy misbehaving).
	site faults.Site

	prog *ebpf.Program
	link *Link

	// userspace attachment (thread hook): an opaque policy object the
	// layer invokes itself; the framework still owns lifecycle+accounting.
	payload any

	// env and ctx are the reusable environment and scratch context; Run is
	// synchronous and the engine single-threaded, so one of each per point
	// serves every run, across Replace and whichever program is installed.
	env ebpf.Env
	ctx ebpf.Ctx

	stats Stats
	// runsKey and faultsKey are the names stats.Runs and stats.Faults are
	// published under (StatsKeys).
	runsKey, faultsKey string

	// batch is RunBatch's reusable verdict slice, so steady-state burst
	// dispatch stays allocation-free.
	batch []Verdict
}

// NewPoint creates a hook point on h. name identifies the instance (for
// metric names and the links listing) and should be stable, e.g.
// "socket_select:9000"; site is the chaos seam the point fires before each
// run ("" for none). The point's Env draws time and randomness from h.Eng.
func NewPoint(h *Host, name string, site faults.Site) *Point {
	metric := sanitize(name)
	eng := h.Eng
	return &Point{
		name: name,
		host: h,
		site: site,
		env: ebpf.Env{
			Prandom: func() uint32 { return eng.Rand().Uint32() },
			Ktime:   func() uint64 { return uint64(eng.Now()) },
		},
		runsKey:   "ebpf_hook_runs_" + metric,
		faultsKey: "ebpf_hook_faults_" + metric,
	}
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

// Name reports the point's instance name.
func (p *Point) Name() string { return p.name }

// Env returns the point's environment, as the last run left it.
func (p *Point) Env() *ebpf.Env { return &p.env }

// Attached reports whether anything (program or userspace payload) is
// installed.
func (p *Point) Attached() bool { return p.prog != nil || p.payload != nil }

// Program returns the installed program, or nil.
func (p *Point) Program() *ebpf.Program { return p.prog }

// Link returns the live attachment, or nil when the slot is empty.
func (p *Point) Link() *Link { return p.link }

// Stats returns cumulative accounting across all attachments ever
// installed at this point.
func (p *Point) Stats() Stats { return p.stats }

// StatsKeys returns the stats-key names this point's Runs and Faults are
// published under: ebpf_hook_runs_<point> and ebpf_hook_faults_<point>,
// with the instance name reduced to the metric alphabet.
func (p *Point) StatsKeys() (runs, faults string) { return p.runsKey, p.faultsKey }

// Attach installs prog and returns its Link. Attaching to an occupied
// point fails — the owner must Replace (live upgrade) or Detach first, so
// one tenant can never silently shadow another's program.
func (p *Point) Attach(prog *ebpf.Program) (*Link, error) {
	if prog == nil {
		return nil, fmt.Errorf("hook: %s: attach nil program", p.name)
	}
	if p.Attached() {
		return nil, fmt.Errorf("hook: %s: already attached (%s)", p.name, p.link.Label())
	}
	l := &Link{point: p, prog: prog, label: prog.Name()}
	p.prog, p.link = prog, l
	return l, nil
}

// AttachUser installs an opaque userspace policy (the thread hook's
// ghOSt policy object). The layer retrieves it with UserPayload and
// accounts invocations with UserRun; Detach and
// the links listing work exactly as for program attachments.
func (p *Point) AttachUser(payload any, label string) (*Link, error) {
	if payload == nil {
		return nil, fmt.Errorf("hook: %s: attach nil payload", p.name)
	}
	if p.Attached() {
		return nil, fmt.Errorf("hook: %s: already attached (%s)", p.name, p.link.Label())
	}
	l := &Link{point: p, label: label}
	p.payload, p.link = payload, l
	return l, nil
}

// UserPayload returns the installed userspace policy, or nil.
func (p *Point) UserPayload() any { return p.payload }

// UserRun accounts one invocation of a userspace attachment.
func (p *Point) UserRun() {
	p.account(p.link, Stats{Runs: 1})
}

// Set is the one-call surface: nil detaches, a program attaches or
// live-replaces, keeping the point's one Link. syrupd's direct deployments
// and tests use it.
func (p *Point) Set(prog *ebpf.Program) {
	if prog == nil {
		if p.link != nil {
			p.link.Detach()
		}
		return
	}
	if p.link != nil && p.link.prog != nil {
		// Live replace; cannot fail for a non-nil program on a live link.
		if err := p.link.Replace(prog); err != nil {
			panic(err)
		}
		return
	}
	if p.link != nil {
		p.link.Detach() // userspace attachment swapped for a program
	}
	if _, err := p.Attach(prog); err != nil {
		panic(err) // unreachable: slot was just emptied
	}
}

// Run executes the installed program against one input and classifies the
// result. An empty slot is a Pass (the layer default); a runtime fault is
// a Pass with Faulted set and the point's and link's fault counts bumped.
func (p *Point) Run(in Input) Verdict {
	prog := p.prog
	if prog == nil {
		if p.payload != nil {
			panic(fmt.Sprintf("hook: %s: Run on a userspace attachment", p.name))
		}
		return Verdict{Action: Pass}
	}
	var d Stats
	v := p.runOne(prog, &in, &d)
	p.account(p.link, d)
	return v
}

// RunBatch executes the installed program against a burst of inputs and
// returns one Verdict per input, in order — the vectorized form of Run,
// the XDP bulk-processing analogue. The burst amortizes what Run pays per
// packet: the attach check and program snapshot happen once, and the
// point's and link's counters take the burst totals in one flush.
// Everything observable is equivalent to calling Run once per input in
// the same order — both go through runOne — so a burst whose packets
// diverge (drop/steer/fault mixed) simply yields per-packet verdicts;
// there is no shared-verdict fast path to fall back from.
//
// The attachment is snapshotted at entry: a burst is atomic with respect
// to attach/detach/replace, the way a NAPI poll keeps running the
// RCU-protected program it dereferenced even as a detach lands. The
// returned slice is owned by the Point and valid until the next RunBatch.
func (p *Point) RunBatch(ins []Input) []Verdict {
	out := p.batch[:0]
	prog := p.prog
	if prog == nil {
		if p.payload != nil {
			panic(fmt.Sprintf("hook: %s: RunBatch on a userspace attachment", p.name))
		}
		for range ins {
			out = append(out, Verdict{Action: Pass})
		}
		p.batch = out
		return out
	}
	link := p.link
	var d Stats
	for i := range ins {
		out = append(out, p.runOne(prog, &ins[i], &d))
	}
	p.account(link, d)
	p.batch = out
	return out
}

// runOne is one policy invocation, shared by Run and RunBatch so the two
// cannot drift: fire the host's injector at the point's seam, run prog,
// classify the result (a runtime error fails open as a counted fault),
// charge it to d, and emit the verdict's trace span to the host's tracer.
// An injected fault accounts exactly as a runtime error does — point and
// link counters both bump, a fault span is recorded — without executing
// the program.
func (p *Point) runOne(prog *ebpf.Program, in *Input, d *Stats) Verdict {
	h := p.host
	var (
		raw uint32
		err error
	)
	if h.Faults.Fire(p.site) {
		err = errInjected
	} else {
		p.env.CPUID, p.env.Faults = in.CPU, h.Faults
		p.ctx = ebpf.Ctx{Packet: in.Packet, Hash: in.Hash, Port: in.Port, Queue: in.Queue}
		raw, _, err = prog.Run(&p.ctx, &p.env)
	}
	d.Runs++
	var v Verdict
	switch {
	case err != nil:
		d.Faults++
		v = Verdict{Action: Pass, Faulted: true}
	case raw == ebpf.VerdictDrop:
		d.Drops++
		v = Verdict{Action: Drop}
	case raw == ebpf.VerdictPass:
		d.Passes++
		v = Verdict{Action: Pass}
	default:
		d.Steers++
		v = Verdict{Action: Steer, Index: raw}
	}
	if h.Tracer.Enabled() {
		tv, exec := v.Trace()
		now := h.Eng.Now()
		h.Tracer.Record(trace.Span{
			Req: in.Req, Start: now, End: now, Stage: trace.StageHook,
			Verdict: tv, Executor: exec, CPU: int32(in.Queue),
			Port: uint16(in.Port), Hook: p.name, Policy: prog.Name(),
			Err: v.Faulted, Instant: true,
		})
	}
	return v
}

// account charges d to the point and to the attachment that ran.
func (p *Point) account(link *Link, d Stats) {
	p.stats.add(d)
	if link != nil {
		link.stats.add(d)
	}
}

// Link is an owned attachment of one program (or userspace policy) to one
// Point — the bpf_link of this stack. Whoever holds the Link controls the
// attachment's lifecycle; per-link counters survive Replace, so a link's
// stats describe the deployment, not one program generation.
type Link struct {
	point *Point
	prog  *ebpf.Program
	label string

	stats Stats

	detached bool
}

// Point returns the hook point this link attaches to.
func (l *Link) Point() *Point { return l.point }

// Program returns the currently installed program generation (nil for
// userspace attachments).
func (l *Link) Program() *ebpf.Program { return l.prog }

// Label is a human-readable identity: the program name, or the label
// given to AttachUser.
func (l *Link) Label() string { return l.label }

// Stats returns this attachment's accounting (cumulative across
// Replace generations).
func (l *Link) Stats() Stats { return l.stats }

// Detach tears the attachment down; the point's slot empties and the
// layer falls back to its default path. Idempotent.
func (l *Link) Detach() {
	if l.detached {
		return
	}
	l.detached = true
	if l.point.link == l {
		l.point.prog, l.point.payload, l.point.link = nil, nil, nil
	}
}

// Replace atomically swaps the installed program for prog. The swap
// happens between event-loop callbacks — any in-flight Run completes on
// the old generation, the next Run sees the new one, and no input ever
// observes an empty slot.
func (l *Link) Replace(prog *ebpf.Program) error {
	if prog == nil {
		return fmt.Errorf("hook: %s: Replace(nil); use Detach", l.point.name)
	}
	if l.detached {
		return fmt.Errorf("hook: %s: Replace on detached link", l.point.name)
	}
	if l.prog == nil {
		return fmt.Errorf("hook: %s: Replace program on userspace attachment", l.point.name)
	}
	l.prog, l.label = prog, prog.Name()
	l.point.prog = prog
	return nil
}
