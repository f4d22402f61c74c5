// Package ghost models the ghOSt substrate Syrup uses for its Thread
// Scheduler hook (§4.1): a lightweight kernel scheduling class forwards
// thread state changes as messages to a spinning userspace agent, which
// runs the user-defined matching function (threads → cores) and commits
// placement transactions back to remote cores via IPIs.
//
// Fidelity notes mirrored from the paper:
//   - the agent occupies a dedicated core, so an enclave of N cores gives
//     applications N-1 workers (§5.3 observes exactly this cost);
//   - message handling and transaction commit have per-operation costs;
//   - isolation: an agent only ever sees threads whose App matches its own,
//     enforced by the kernel side at registration (§4.3).
package ghost

import (
	"fmt"
	"slices"

	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// MsgType enumerates thread state-change messages (§4.1 lists created,
// blocked, yielded, etc.).
type MsgType int

// Message types.
const (
	MsgThreadCreated MsgType = iota
	MsgThreadWakeup
	MsgThreadBlocked
	MsgThreadYield
	MsgThreadPreempted
	MsgThreadDead
)

func (t MsgType) String() string {
	switch t {
	case MsgThreadCreated:
		return "THREAD_CREATED"
	case MsgThreadWakeup:
		return "THREAD_WAKEUP"
	case MsgThreadBlocked:
		return "THREAD_BLOCKED"
	case MsgThreadYield:
		return "THREAD_YIELD"
	case MsgThreadPreempted:
		return "THREAD_PREEMPTED"
	case MsgThreadDead:
		return "THREAD_DEAD"
	}
	return "?"
}

// Message is one kernel→agent notification.
type Message struct {
	Type   MsgType
	Thread *kernel.Thread
}

// CPUView is what the policy sees about one enclave core.
type CPUView struct {
	ID   kernel.CPUID
	Curr *kernel.Thread // nil when idle
}

// Placement is one scheduling decision: run Thread on CPU, preempting the
// incumbent if Preempt is set.
type Placement struct {
	Thread  *kernel.Thread
	CPU     kernel.CPUID
	Preempt bool
}

// Policy is the user-defined thread→core matching function. Schedule is
// invoked after each message batch with the current runnable set (in
// thread-ID order) and the enclave's worker cores; it returns the
// placements to commit. Returning a thread that is not runnable or a core
// outside the enclave is a policy bug and panics (the real agent's txn
// would fail). runnable and cpus are agent-owned scratch, valid only for
// the duration of the call: a policy may reorder them but must not retain
// them. The agent consumes the result before it calls again, so a policy
// may return a slice it reuses.
type Policy interface {
	Schedule(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement
}

// Config sets the agent cost model.
type Config struct {
	// PerMessageCost is agent CPU per consumed message (≈0.5 µs).
	PerMessageCost sim.Time
	// CommitCost is the transaction commit cost per placement: syscall +
	// IPI to the remote core (≈2 µs, §4.1's "sending interrupts to the
	// remote logical cores").
	CommitCost sim.Time
}

func (c *Config) fill() {
	if c.PerMessageCost == 0 {
		c.PerMessageCost = 500 * sim.Nanosecond
	}
	if c.CommitCost == 0 {
		c.CommitCost = 2 * sim.Microsecond
	}
}

// Agent is one application's userspace scheduler: a spinning thread on a
// dedicated core plus the kernel-side scheduling class for that
// application's threads.
type Agent struct {
	m   *kernel.Machine
	eng *sim.Engine
	app uint32
	cfg Config

	// pt is the agent's Thread Scheduler hook point. The policy lives
	// there as a userspace attachment, so lifecycle (replace a policy
	// live, revoke it) and run accounting go through the same framework
	// as the eBPF hooks.
	pt *hook.Point

	agentCPU kernel.CPUID
	workers  []kernel.CPUID

	queue    []Message
	inflight []Message // batch being charged on the agent core (double buffer)
	busy     bool
	// runnable stays in thread-ID order, the deterministic order policies
	// see; Schedule is handed a copy of it and the per-core view (scratch).
	runnable   []*kernel.Thread
	runScratch []*kernel.Thread
	cpuScratch []CPUView

	// stopped quiesces the agent (revocation): messages keep queueing but
	// no batch is drained and no policy runs until Resume. The enclave's
	// reservations stay in place so a redeploy reuses the same agent.
	stopped bool

	// faults, when armed by a chaos plan, stalls message batches on the
	// agent core and drops commit transactions in flight.
	faults *faults.Injector

	// Stored closure-free callbacks for the agent's event hot paths. The
	// single-outstanding-batch invariant (busy) makes one inflight buffer
	// sufficient; a commit event carries its whole placement (packCommit),
	// so however commits interleave in time, no queue has to pair them up.
	batchCB  sim.Callback
	commitCB sim.Callback

	// tracer, when enabled, receives StageGhost spans for message-batch
	// processing and placement commits; batchStart marks the current
	// batch's start on the agent core.
	tracer     *trace.Recorder
	batchStart sim.Time

	// Stats.
	Messages uint64
	Commits  uint64
	Preempts uint64
	// Stalls counts injected agent stalls; CommitDrops counts commit
	// transactions dropped by an injected fault (the placement's thread
	// returns to the runnable set, as after any failed ghOSt txn).
	Stalls      uint64
	CommitDrops uint64
}

// NewAgent reserves agentCPU for the spinning agent and workers as the
// enclave's application cores, and installs the agent as the scheduling
// class for registered threads.
func NewAgent(m *kernel.Machine, app uint32, policy Policy, agentCPU kernel.CPUID, workers []kernel.CPUID, cfg Config) *Agent {
	cfg.fill()
	a := &Agent{
		m: m, eng: m.Eng, app: app, cfg: cfg,
		agentCPU: agentCPU, workers: workers,
		cpuScratch: make([]CPUView, len(workers)),
		pt:         hook.NewPoint(fmt.Sprintf("thread_sched:app%d", app), nil),
	}
	if policy != nil {
		if _, err := a.pt.AttachUser(policy, fmt.Sprintf("app%d-policy", app)); err != nil {
			panic(err) // unreachable: the point was just created empty
		}
	}
	m.CPU(agentCPU).Reserve(fmt.Sprintf("ghost-agent-app%d", app))
	for _, w := range workers {
		m.CPU(w).Reserve(fmt.Sprintf("ghost-enclave-app%d", app))
	}
	a.batchCB = func(any, uint64) {
		// A kick is an empty batch: no span, no messages, just the policy.
		if len(a.inflight) > 0 && a.tracer.Enabled() {
			a.tracer.Record(trace.Span{
				Start: a.batchStart, End: a.eng.Now(), Stage: trace.StageGhost,
				CPU: int32(a.agentCPU), Executor: uint32(len(a.inflight)),
				Hook: a.pt.Name(), Policy: "batch",
			})
		}
		for _, msg := range a.inflight {
			a.Messages++
			switch msg.Type {
			case MsgThreadCreated:
				// Created threads start blocked; nothing to do yet.
			case MsgThreadWakeup, MsgThreadYield, MsgThreadPreempted:
				a.setRunnable(msg.Thread, true)
			case MsgThreadBlocked, MsgThreadDead:
				a.setRunnable(msg.Thread, false)
			}
		}
		a.inflight = a.inflight[:0]
		a.invokePolicy()
		a.busy = false
		a.maybeRun()
	}
	a.commitCB = func(arg any, u uint64) {
		pl := Placement{Thread: arg.(*kernel.Thread), CPU: kernel.CPUID(uint32(u) >> 1), Preempt: u&1 != 0}
		if a.tracer.Enabled() {
			// The span is the syscall+IPI round trip: a decision's nth
			// commit (u>>32, see packCommit) was issued nth commit costs ago.
			a.tracer.Record(trace.Span{
				Req: uint64(pl.Thread.ID), Start: a.eng.Now() - sim.Time(u>>32)*a.cfg.CommitCost, End: a.eng.Now(),
				Stage: trace.StageGhost, Verdict: trace.VerdictSteer,
				Executor: uint32(pl.CPU), CPU: int32(a.agentCPU),
				Hook: a.pt.Name(), Policy: "commit",
			})
		}
		// An injected commit fault drops the transaction after its cost was
		// paid: the IPI round trip happened but the placement never landed.
		// The thread returns to the runnable set and the policy is kicked,
		// exactly the failed-txn recovery path.
		if a.faults.Fire(faults.SiteGhostCommit) {
			a.CommitDrops++
			if pl.Thread.State() == kernel.ThreadRunnable {
				a.setRunnable(pl.Thread, true)
				a.kickPolicy()
			}
			return
		}
		a.commit(pl)
	}
	return a
}

// SetFaults arms the agent with a chaos plan's injector (nil disarms):
// message-batch stalls on the agent core and dropped commit transactions.
func (a *Agent) SetFaults(inj *faults.Injector) { a.faults = inj }

// Stop quiesces the agent: messages keep accumulating but no batch is
// processed and no placements are committed until Resume. Core
// reservations are kept — ghOSt enclaves outlive policy revocations, and
// kernel CPUs cannot be re-reserved.
func (a *Agent) Stop() { a.stopped = true }

// Resume restarts a stopped agent and drains whatever queued meanwhile.
func (a *Agent) Resume() {
	if !a.stopped {
		return
	}
	a.stopped = false
	a.maybeRun()
	if len(a.runnable) > 0 {
		a.kickPolicy()
	}
}

// Stopped reports whether the agent is quiesced.
func (a *Agent) Stopped() bool { return a.stopped }

// SetTracer routes the agent's message→commit round trips to r as
// StageGhost spans: one per processed batch (Policy "batch", Executor =
// message count) and one per placement commit (Policy "commit",
// Executor = target CPU, Req = thread ID).
func (a *Agent) SetTracer(r *trace.Recorder) { a.tracer = r }

// Register moves a blocked thread into this agent's scheduling class.
// ghOSt's isolation guarantee: the kernel refuses threads of other
// applications (§4.3).
func (a *Agent) Register(t *kernel.Thread) error {
	if t.App != a.app {
		return fmt.Errorf("ghost: agent for app %d cannot schedule thread %q of app %d", a.app, t.Name, t.App)
	}
	a.m.SetClass(t, a)
	a.enqueue(Message{Type: MsgThreadCreated, Thread: t})
	return nil
}

// Ready implements kernel.SchedClass (kernel side → message).
func (a *Agent) Ready(t *kernel.Thread) {
	a.enqueue(Message{Type: MsgThreadWakeup, Thread: t})
}

// Descheduled implements kernel.SchedClass.
func (a *Agent) Descheduled(t *kernel.Thread, cpu *kernel.CPU) {
	typ := MsgThreadBlocked
	if t.State() == kernel.ThreadDead {
		typ = MsgThreadDead
	}
	a.enqueue(Message{Type: typ, Thread: t})
}

// Yielded implements kernel.SchedClass.
func (a *Agent) Yielded(t *kernel.Thread, cpu *kernel.CPU) {
	a.enqueue(Message{Type: MsgThreadYield, Thread: t})
}

func (a *Agent) enqueue(msg Message) {
	a.queue = append(a.queue, msg)
	a.maybeRun()
}

// maybeRun drains the message queue on the spinning agent core, then
// invokes the policy and commits its placements. Message processing and
// commits consume agent-core time sequentially, which is what bounds the
// scheduling throughput of a single agent.
func (a *Agent) maybeRun() {
	if a.busy || a.stopped || len(a.queue) == 0 {
		return
	}
	a.busy = true
	a.batchStart = a.eng.Now()
	// Swap the queue and the (drained) inflight buffer: the batch keeps its
	// backing array for reuse, and new messages accumulate in the other.
	a.inflight, a.queue = a.queue, a.inflight[:0]
	cost := a.cfg.PerMessageCost * sim.Time(len(a.inflight))
	// An injected stall holds the agent core for the spec's duration on
	// top of the batch cost (a GC pause or scheduler-thread descheduling).
	if a.faults.Fire(faults.SiteGhostStall) {
		a.Stalls++
		cost += a.faults.Stall(faults.SiteGhostStall)
	}
	a.eng.CallAfter(cost, a.batchCB, nil, 0)
}

func (a *Agent) invokePolicy() {
	if len(a.runnable) == 0 {
		return
	}
	policy, _ := a.pt.UserPayload().(Policy)
	if policy == nil {
		// Revoked (or never installed): threads stay runnable until a new
		// policy attaches; the enclave idles, as when a ghOSt agent dies.
		return
	}
	a.runScratch = append(a.runScratch[:0], a.runnable...)
	for i, id := range a.workers {
		a.cpuScratch[i] = CPUView{ID: id, Curr: a.m.CPU(id).Curr()}
	}
	a.pt.UserRun()
	placements := policy.Schedule(a.eng.Now(), a.runScratch, a.cpuScratch)
	for i, pl := range placements {
		if !slices.Contains(a.workers, pl.CPU) {
			panic(fmt.Sprintf("ghost: policy placed thread on cpu %d outside the enclave", pl.CPU))
		}
		if !a.setRunnable(pl.Thread, false) { // leaves the runnable set while placed
			panic(fmt.Sprintf("ghost: policy placed non-runnable thread %q", pl.Thread.Name))
		}
		a.Commits++
		a.eng.CallAfter(sim.Time(i+1)*a.cfg.CommitCost, a.commitCB, pl.Thread, packCommit(pl, i+1))
	}
}

// packCommit folds a placement's core, its preempt flag and its 1-based
// position among its decision's commits into a commit event's integer
// argument; the thread rides as the event's pointer argument.
func packCommit(pl Placement, nth int) uint64 {
	u := uint64(nth)<<32 | uint64(uint32(pl.CPU))<<1
	if pl.Preempt {
		u |= 1
	}
	return u
}

// setRunnable adds t to or removes it from the ID-ordered runnable set and
// reports whether the set changed.
func (a *Agent) setRunnable(t *kernel.Thread, on bool) bool {
	i, present := slices.BinarySearchFunc(a.runnable, t.ID, func(r *kernel.Thread, id int) int { return r.ID - id })
	if present == on {
		return false
	}
	if on {
		a.runnable = slices.Insert(a.runnable, i, t)
	} else {
		a.runnable = slices.Delete(a.runnable, i, i+1)
	}
	return true
}

// commit lands one placement on its core: preempt the incumbent if
// requested (it returns to the runnable set via MsgThreadPreempted), then
// start the thread.
func (a *Agent) commit(pl Placement) {
	cpu := a.m.CPU(pl.CPU)
	if pl.Thread.State() != kernel.ThreadRunnable {
		// The thread's state changed while the commit was in flight
		// (e.g., it was placed by an earlier commit in the same batch, or
		// woke and blocked again). The transaction fails silently, like a
		// racing ghOSt txn; a later message will resurface the thread.
		return
	}
	if curr := cpu.Curr(); curr != nil {
		if !pl.Preempt {
			// Core got occupied while committing; put the thread back and
			// let the next policy invocation retry.
			a.setRunnable(pl.Thread, true)
			a.kickPolicy()
			return
		}
		a.Preempts++
		cpu.PreemptCurrent()
		a.enqueue(Message{Type: MsgThreadPreempted, Thread: curr})
	}
	cpu.StartThread(pl.Thread, 0)
}

// kickPolicy schedules a re-invocation via a synthetic empty batch.
func (a *Agent) kickPolicy() {
	if a.busy || a.stopped {
		return
	}
	a.busy = true
	a.eng.CallAfter(a.cfg.PerMessageCost, a.batchCB, nil, 0)
}

// Hook exposes the agent's Thread Scheduler hook point; syrupd replaces
// and revokes policies through it.
func (a *Agent) Hook() *hook.Point { return a.pt }

// Runnable reports the current runnable-set size (tests/stats).
func (a *Agent) Runnable() int { return len(a.runnable) }
