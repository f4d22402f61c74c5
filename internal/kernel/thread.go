// Package kernel models the end-host CPU and thread substrate the paper's
// evaluation runs on: logical cores, kernel threads as event-driven state
// machines, and a CFS-like default scheduler (per-core runqueues, vruntime
// fairness, wakeup-preemption granularity) — the request-oblivious baseline
// Syrup's ghOSt-deployed policies are compared against in §5.3.
package kernel

import (
	"fmt"

	"syrup/internal/sim"
)

// ThreadState is a thread's scheduling state.
type ThreadState int

// Thread states.
const (
	ThreadBlocked ThreadState = iota
	ThreadRunnable
	ThreadRunning
	ThreadDead
)

func (s ThreadState) String() string {
	switch s {
	case ThreadBlocked:
		return "blocked"
	case ThreadRunnable:
		return "runnable"
	case ThreadRunning:
		return "running"
	case ThreadDead:
		return "dead"
	}
	return "?"
}

// Thread is a kernel thread modeled as a continuation-passing state
// machine. Application code drives it with Exec (consume CPU, then continue)
// and Block (wait for an external Wake). The scheduler class decides where
// and when it runs.
type Thread struct {
	ID   int
	Name string
	// App identifies the owning application/tenant; ghOSt isolation keys
	// off it.
	App uint32
	// Affinity is a bitmask of allowed CPUs (bit i = CPU i).
	Affinity uint64

	m     *Machine
	state ThreadState
	cpu   *CPU
	class SchedClass

	// cont is the continuation to invoke next time the thread gets a CPU
	// and has no partially-consumed burst.
	cont func()
	// remaining is the unfinished part of the current Exec burst
	// (non-zero after a preemption).
	remaining sim.Time
	// burstDone runs when the current burst completes.
	burstDone func()
	// burstEv is the pending completion timer while running (a pooled,
	// generation-checked handle; the zero Timer means no pending burst).
	burstEv sim.Timer

	// CFS accounting.
	vruntime     sim.Time
	dispatchedAt sim.Time
	lastCPU      CPUID

	// Stats.
	cpuTime      sim.Time
	waitingSince sim.Time // when it last became runnable
}

// State reports the thread's scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// LastWakeAt reports when the thread last became runnable (its runqueue
// entry time). Request tracers read it, paired with DispatchedAt, to
// measure runqueue wait without the kernel knowing about tracing.
func (t *Thread) LastWakeAt() sim.Time { return t.waitingSince }

// DispatchedAt reports when the thread's current (or most recent)
// on-CPU span began, after context-switch cost.
func (t *Thread) DispatchedAt() sim.Time { return t.dispatchedAt }

// LastCPU reports the CPU the thread last ran (or is running) on.
func (t *Thread) LastCPU() CPUID { return t.lastCPU }

// allowedOn reports whether affinity admits CPU c.
func (t *Thread) allowedOn(c CPUID) bool {
	return t.Affinity&(1<<uint(c)) != 0
}

// Exec consumes d nanoseconds of CPU, then invokes then (still in thread
// context). It must be called from the thread's own continuation while
// running. Calling it in any other state is a modeling bug and panics.
func (t *Thread) Exec(d sim.Time, then func()) {
	if t.state != ThreadRunning || t.cpu == nil {
		panic(fmt.Sprintf("kernel: Exec on %s thread %q", t.state, t.Name))
	}
	if d < 0 {
		panic("kernel: negative burst")
	}
	t.remaining = d
	t.burstDone = then
	t.armBurst()
}

// armBurst schedules the completion of the in-progress burst on a pooled
// timer (burstDoneCB; no per-burst closure).
func (t *Thread) armBurst() {
	t.burstEv = t.m.Eng.TimerAfter(t.remaining, burstDoneCB, t, 0)
}

// burstDoneCB completes a thread's in-progress burst (arg = *Thread). One
// stored callback serves both fresh bursts (armBurst) and resumed ones
// (CPU.StartThread).
var burstDoneCB sim.Callback = func(arg any, _ uint64) {
	t := arg.(*Thread)
	t.burstEv = sim.Timer{}
	t.remaining = 0
	done := t.burstDone
	t.burstDone = nil
	if done == nil {
		panic(fmt.Sprintf("kernel: thread %q burst completed with no continuation", t.Name))
	}
	done()
	// The continuation must have either started a new burst, blocked,
	// yielded, or exited. Anything else leaves the CPU wedged.
	if t.state == ThreadRunning && t.burstEv == (sim.Timer{}) {
		panic(fmt.Sprintf("kernel: thread %q continuation neither blocked nor ran", t.Name))
	}
}

// contGuardCB fires once the context-switch window elapses and runs the
// thread's stored continuation (arg = *Thread).
var contGuardCB sim.Callback = func(arg any, _ uint64) {
	t := arg.(*Thread)
	t.burstEv = sim.Timer{}
	cont := t.cont
	t.cont = nil
	cont()
	if t.state == ThreadRunning && t.burstEv == (sim.Timer{}) {
		panic(fmt.Sprintf("kernel: thread %q continuation neither blocked nor ran", t.Name))
	}
}

// Block transitions the running thread to Blocked and releases its CPU.
// The continuation passed here resumes when Wake is called.
func (t *Thread) Block(resume func()) {
	if t.state != ThreadRunning || t.cpu == nil {
		panic(fmt.Sprintf("kernel: Block on %s thread %q", t.state, t.Name))
	}
	t.cont = resume
	cpu := t.detach()
	t.state = ThreadBlocked
	t.class.Descheduled(t, cpu)
}

// Exit terminates the thread.
func (t *Thread) Exit() {
	if t.state != ThreadRunning || t.cpu == nil {
		panic(fmt.Sprintf("kernel: Exit on %s thread %q", t.state, t.Name))
	}
	cpu := t.detach()
	t.state = ThreadDead
	t.class.Descheduled(t, cpu)
}

// Yield releases the CPU but stays runnable (sched_yield).
func (t *Thread) Yield(resume func()) {
	if t.state != ThreadRunning || t.cpu == nil {
		panic(fmt.Sprintf("kernel: Yield on %s thread %q", t.state, t.Name))
	}
	t.cont = resume
	cpu := t.detach()
	t.state = ThreadRunnable
	t.waitingSince = t.m.Eng.Now()
	t.class.Yielded(t, cpu)
}

// Wake makes a blocked thread runnable. Waking a runnable/running thread is
// a no-op (like a redundant futex wake); waking a dead thread panics.
func (t *Thread) Wake() {
	switch t.state {
	case ThreadDead:
		panic(fmt.Sprintf("kernel: Wake on dead thread %q", t.Name))
	case ThreadRunnable, ThreadRunning:
		return
	}
	t.state = ThreadRunnable
	t.waitingSince = t.m.Eng.Now()
	t.class.Ready(t)
}

// detach removes the thread from its CPU, accounting vruntime and CPU time,
// and cancels any pending burst event (capturing the unconsumed remainder).
func (t *Thread) detach() *CPU {
	cpu := t.cpu
	now := t.m.Eng.Now()
	if t.burstEv.Active() {
		if now >= t.dispatchedAt {
			// The burst had started; capture what is left of it.
			t.remaining = t.burstEv.When() - now
		}
		// Otherwise the thread was still context-switching in: its burst
		// (or pending continuation) is untouched and re-dispatch will
		// restart the switch.
		t.m.Eng.CancelTimer(t.burstEv)
		t.burstEv = sim.Timer{}
	}
	ran := now - t.dispatchedAt
	if ran < 0 {
		ran = 0 // descheduled during the context-switch window
	}
	t.vruntime += ran
	t.cpuTime += ran
	cpu.BusyTime += now - cpu.busyStart
	t.cpu = nil
	t.lastCPU = cpu.id
	cpu.curr = nil
	cpu.cancelSliceTimer()
	return cpu
}

// preempt forcibly deschedules the running thread, marking it runnable.
// Callers (scheduler classes) are responsible for requeueing it.
func (t *Thread) preempt() *CPU {
	if t.state != ThreadRunning {
		panic(fmt.Sprintf("kernel: preempt of %s thread %q", t.state, t.Name))
	}
	cpu := t.detach()
	t.state = ThreadRunnable
	t.waitingSince = t.m.Eng.Now()
	return cpu
}
