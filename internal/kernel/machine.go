package kernel

import (
	"fmt"

	"syrup/internal/sim"
)

// CPUID names a logical core.
type CPUID int

// Config sets machine-wide cost constants. Zero values take defaults.
type Config struct {
	NumCPUs int
	// CtxSwitchCost is charged whenever a CPU switches between two
	// different threads (≈1 µs on the paper's Xeons).
	CtxSwitchCost sim.Time
}

// Machine is the simulated end-host: a set of logical cores plus the CFS
// default scheduling class. Additional classes (ghOSt) can reserve cores.
type Machine struct {
	Eng  *sim.Engine
	cpus []*CPU
	cfs  *CFS

	ctxCost sim.Time
	nextTID int
}

// New constructs a machine with cfg.NumCPUs cores.
func New(eng *sim.Engine, cfg Config) *Machine {
	if cfg.NumCPUs <= 0 || cfg.NumCPUs > 64 {
		panic(fmt.Sprintf("kernel: bad cpu count %d", cfg.NumCPUs))
	}
	if cfg.CtxSwitchCost == 0 {
		cfg.CtxSwitchCost = 1 * sim.Microsecond
	}
	m := &Machine{Eng: eng, ctxCost: cfg.CtxSwitchCost}
	for i := 0; i < cfg.NumCPUs; i++ {
		m.cpus = append(m.cpus, &CPU{id: CPUID(i), m: m})
	}
	m.cfs = newCFS(m)
	return m
}

// NumCPUs reports the core count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// CPU returns core i.
func (m *Machine) CPU(i CPUID) *CPU { return m.cpus[i] }

// AffinityAll is a convenience affinity mask covering every core.
func (m *Machine) AffinityAll() uint64 {
	return (uint64(1) << uint(len(m.cpus))) - 1
}

// NewThread creates a thread in the Blocked state under the CFS class.
// start runs (in thread context) the first time the thread is woken.
func (m *Machine) NewThread(name string, app uint32, affinity uint64, start func(t *Thread)) *Thread {
	if affinity == 0 {
		affinity = m.AffinityAll()
	}
	m.nextTID++
	t := &Thread{
		ID:       m.nextTID,
		Name:     name,
		App:      app,
		Affinity: affinity,
		m:        m,
		state:    ThreadBlocked,
		lastCPU:  -1,
	}
	t.cont = func() { start(t) }
	t.class = m.cfs
	return t
}

// SetClass moves a blocked thread to a different scheduling class (the
// ghOSt agent calls this when an application registers its threads).
func (m *Machine) SetClass(t *Thread, class SchedClass) {
	if t.state != ThreadBlocked {
		panic(fmt.Sprintf("kernel: SetClass on %v thread %q", t.state, t.Name))
	}
	t.class = class
}

// SchedClass is a scheduling class: CFS or a ghOSt agent. The kernel calls
// it on thread state transitions; it decides placement via CPU.StartThread.
type SchedClass interface {
	// Ready is called when a thread becomes runnable (wake).
	Ready(t *Thread)
	// Descheduled is called after a thread blocked or exited, with the CPU
	// it vacated.
	Descheduled(t *Thread, cpu *CPU)
	// Yielded is called after a sched_yield; the thread is runnable.
	Yielded(t *Thread, cpu *CPU)
}

// CPU is one logical core.
type CPU struct {
	id   CPUID
	m    *Machine
	curr *Thread
	// reservedBy names the subsystem that owns this core exclusively
	// (e.g., a ghOSt enclave or the spinning agent itself); empty means
	// the CFS class schedules it.
	reservedBy string

	sliceTimer sim.Timer

	// Stats.
	BusyTime  sim.Time
	busyStart sim.Time
	Switches  uint64
}

// Curr returns the running thread, or nil when idle.
func (c *CPU) Curr() *Thread { return c.curr }

// Reserve marks the core as owned by a non-CFS subsystem. Reserving a busy
// or already-reserved core panics: experiments set up reservations before
// traffic starts.
func (c *CPU) Reserve(owner string) {
	if c.curr != nil || c.reservedBy != "" {
		panic(fmt.Sprintf("kernel: cannot reserve busy cpu %d", c.id))
	}
	c.reservedBy = owner
}

// StartThread begins running t on this idle core, charging extra (IPI,
// agent commit) on top of the machine context-switch cost before any of the
// thread's work proceeds. It is the one dispatch primitive shared by all
// scheduling classes.
func (c *CPU) StartThread(t *Thread, extra sim.Time) {
	if c.curr != nil {
		panic(fmt.Sprintf("kernel: StartThread on busy cpu %d", c.id))
	}
	if t.state != ThreadRunnable {
		panic(fmt.Sprintf("kernel: StartThread with %v thread %q", t.state, t.Name))
	}
	if !t.allowedOn(c.id) {
		panic(fmt.Sprintf("kernel: thread %q not allowed on cpu %d", t.Name, c.id))
	}
	now := c.m.Eng.Now()
	// Every dispatch from idle involves a switch; same-thread resume on
	// the same core is rare enough that we charge uniformly.
	cost := extra + c.m.ctxCost
	c.curr = t
	c.Switches++
	c.busyStart = now
	t.cpu = c
	t.state = ThreadRunning
	t.dispatchedAt = now + cost // vruntime starts after the switch

	if t.remaining > 0 || t.burstDone != nil {
		// Resume a preempted burst after the switch cost. (A burst whose
		// completion coincided with the preemption resumes with zero
		// remaining work and completes immediately after the switch.)
		t.burstEv = c.m.Eng.TimerAfter(cost+t.remaining, burstDoneCB, t, 0)
		return
	}
	if t.cont == nil {
		panic(fmt.Sprintf("kernel: thread %q dispatched with no continuation", t.Name))
	}
	// The continuation itself runs after the switch completes. The guard
	// timer keeps the thread marked running meanwhile; the continuation
	// stays on the thread until it actually fires so a preemption during
	// the switch window does not lose it.
	t.burstEv = c.m.Eng.TimerAfter(cost, contGuardCB, t, 0)
}

// PreemptCurrent forcibly removes the running thread (runnable afterwards)
// and returns it; nil if the core was idle.
func (c *CPU) PreemptCurrent() *Thread {
	t := c.curr
	if t == nil {
		return nil
	}
	t.preempt()
	return t
}

func (c *CPU) cancelSliceTimer() {
	if c.sliceTimer.Active() {
		c.m.Eng.CancelTimer(c.sliceTimer)
	}
	c.sliceTimer = sim.Timer{}
}
