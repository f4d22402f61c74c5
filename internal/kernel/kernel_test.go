package kernel

import (
	"testing"

	"syrup/internal/sim"
)

func newMachine(t *testing.T, cpus int) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.New(1)
	return eng, New(eng, Config{NumCPUs: cpus})
}

// spinner creates a CPU-bound thread that repeatedly Execs bursts of d.
func spinner(m *Machine, name string, affinity uint64, d sim.Time) *Thread {
	var loop func(t *Thread)
	loop = func(t *Thread) {
		t.Exec(d, func() { loop(t) })
	}
	return m.NewThread(name, 0, affinity, loop)
}

func TestThreadLifecycle(t *testing.T) {
	eng, m := newMachine(t, 1)
	var phases []string
	th := m.NewThread("worker", 0, 0, func(th *Thread) {
		phases = append(phases, "start")
		th.Exec(10*sim.Microsecond, func() {
			phases = append(phases, "burst-done")
			th.Block(func() {
				phases = append(phases, "resumed")
				th.Exec(5*sim.Microsecond, func() {
					phases = append(phases, "done")
					th.Exit()
				})
			})
		})
	})
	if th.State() != ThreadBlocked {
		t.Fatal("new thread should be blocked")
	}
	th.Wake()
	eng.Run()
	if th.State() != ThreadBlocked {
		t.Fatalf("state after first run: %v", th.State())
	}
	th.Wake()
	eng.Run()
	want := []string{"start", "burst-done", "resumed", "done"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v", phases)
		}
	}
	if th.State() != ThreadDead {
		t.Fatalf("final state %v", th.State())
	}
	if cpuTime(th) != 15*sim.Microsecond {
		t.Fatalf("cpu time = %v", cpuTime(th))
	}
}

func TestRedundantWakeIsNoOp(t *testing.T) {
	eng, m := newMachine(t, 1)
	starts := 0
	th := m.NewThread("w", 0, 0, func(th *Thread) {
		starts++
		th.Exec(sim.Microsecond, func() { th.Block(func() { t.Fatal("unexpected resume") }) })
	})
	th.Wake()
	th.Wake() // runnable already
	eng.Run()
	if starts != 1 {
		t.Fatalf("starts = %d", starts)
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	eng := sim.New(1)
	m := New(eng, Config{NumCPUs: 1})
	var doneAt sim.Time
	th := m.NewThread("w", 0, 0, func(th *Thread) {
		th.Exec(10*sim.Microsecond, func() {
			doneAt = eng.Now()
			th.Exit()
		})
	})
	th.Wake()
	eng.Run()
	if want := ctxSwitchCost + 10*sim.Microsecond; doneAt != want {
		t.Fatalf("burst completed at %v, want %v (switch + 10us work)", doneAt, want)
	}
}

func TestCFSFairness(t *testing.T) {
	eng, m := newMachine(t, 1)
	a := spinner(m, "a", 0, 500*sim.Microsecond)
	b := spinner(m, "b", 0, 500*sim.Microsecond)
	a.Wake()
	b.Wake()
	eng.RunUntil(200 * sim.Millisecond)
	total := cpuTime(a) + cpuTime(b)
	ratio := float64(cpuTime(a)) / float64(total)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("unfair split: a=%v b=%v", cpuTime(a), cpuTime(b))
	}
	// One core can't produce more than 200ms of CPU time.
	if total > 200*sim.Millisecond {
		t.Fatalf("overcommitted core: %v", total)
	}
	if got := float64(total) / float64(200*sim.Millisecond); got < 0.9 {
		t.Fatalf("core underutilized with two spinners: %.2f", got)
	}
}

func TestCFSSpreadsAcrossIdleCores(t *testing.T) {
	eng, m := newMachine(t, 4)
	threads := make([]*Thread, 4)
	for i := range threads {
		threads[i] = spinner(m, "s", 0, sim.Millisecond)
		threads[i].Wake()
	}
	eng.RunUntil(50 * sim.Millisecond)
	for i, th := range threads {
		if cpuTime(th) < 45*sim.Millisecond {
			t.Fatalf("thread %d starved with 4 threads on 4 cores: %v", i, cpuTime(th))
		}
	}
}

func TestCFSAffinityRespected(t *testing.T) {
	eng, m := newMachine(t, 2)
	pinned := spinner(m, "pinned", 1<<1, sim.Millisecond) // CPU 1 only
	var sawCPU CPUID = -1
	th := m.NewThread("check", 0, 1<<1, func(th *Thread) {
		sawCPU = onCPU(th)
		th.Exec(sim.Microsecond, func() { th.Exit() })
	})
	pinned.Wake()
	th.Wake()
	eng.RunUntil(20 * sim.Millisecond)
	if sawCPU != 1 {
		t.Fatalf("pinned thread ran on cpu %d", sawCPU)
	}
	if m.CPU(0).Curr() != nil {
		t.Fatal("cpu 0 should stay idle with both threads pinned to cpu 1")
	}
}

func TestCFSWakeupPreemptionLongSleeper(t *testing.T) {
	eng, m := newMachine(t, 1)
	hog := spinner(m, "hog", 0, 10*sim.Millisecond)
	hog.Wake()
	eng.RunUntil(20 * sim.Millisecond) // hog accumulates vruntime

	var latency sim.Time
	wakeAt := eng.Now()
	sleeper := m.NewThread("sleeper", 0, 0, func(th *Thread) {
		latency = eng.Now() - wakeAt
		th.Exec(10*sim.Microsecond, func() { th.Exit() })
	})
	sleeper.Wake()
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	// A first-wake sleeper gets the full sleeper credit (3ms behind
	// min_vruntime), beating the 1ms wakeup granularity → immediate
	// preemption (bounded by the context-switch cost).
	if latency > 100*sim.Microsecond {
		t.Fatalf("long sleeper waited %v; wakeup preemption broken", latency)
	}
}

func TestCFSNoPreemptionForFrequentRunner(t *testing.T) {
	// A thread that runs often keeps vruntime near the queue min, so its
	// wakeups must NOT preempt the running thread (the Fig. 8 CFS
	// obliviousness effect).
	eng, m := newMachine(t, 1)
	// SCAN-like server thread: 700us bursts with a deschedule between
	// requests (a Block and a Wake at the same instant: the next request
	// is already queued), so it never overruns its fair share from the
	// scheduler's point of view.
	var hog *Thread
	var hogLoop func()
	hogLoop = func() {
		hog.Exec(700*sim.Microsecond, func() {
			hog.Block(hogLoop)
			hog.Wake()
		})
	}
	hog = m.NewThread("hog", 0, 0, func(*Thread) { hogLoop() })
	hog.Wake()

	var maxLatency sim.Time
	var wakeAt sim.Time
	var frequent *Thread
	var loop func()
	loop = func() {
		if l := eng.Now() - wakeAt; l > maxLatency {
			maxLatency = l
		}
		frequent.Exec(10*sim.Microsecond, func() {
			frequent.Block(func() { loop() })
		})
	}
	frequent = m.NewThread("frequent", 0, 0, func(th *Thread) { loop() })
	// Warm up vruntime: let it run once from cold.
	wakeAt = 0
	frequent.Wake()
	eng.RunUntil(50 * sim.Millisecond)
	maxLatency = 0
	// Steady state: wake it every 800us while the hog burns CPU.
	for i := 0; i < 50; i++ {
		at := eng.Now() + 800*sim.Microsecond
		eng.CallAt(at, func(any, uint64) {
			wakeAt = at
			frequent.Wake()
		}, nil, 0)
		eng.RunUntil(at + 800*sim.Microsecond)
	}
	// It should regularly wait behind the hog's 700us bursts rather than
	// preempting instantly.
	if maxLatency < 200*sim.Microsecond {
		t.Fatalf("frequent runner preempted the hog instantly (max wait %v); CFS wakeup granularity not modeled", maxLatency)
	}
}

func TestCFSTimeslicePreemption(t *testing.T) {
	eng, m := newMachine(t, 1)
	// Two infinite spinners with huge bursts: only timeslice preemption
	// can interleave them.
	a := spinner(m, "a", 0, sim.Second)
	b := spinner(m, "b", 0, sim.Second)
	a.Wake()
	b.Wake()
	eng.RunUntil(100 * sim.Millisecond)
	if cpuTime(a) == 0 || cpuTime(b) == 0 {
		t.Fatalf("timeslice preemption missing: a=%v b=%v", cpuTime(a), cpuTime(b))
	}
	ratio := float64(cpuTime(a)) / float64(cpuTime(a)+cpuTime(b))
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("slices unfair: a=%v b=%v", cpuTime(a), cpuTime(b))
	}
}

func TestCFSIdlePull(t *testing.T) {
	eng, m := newMachine(t, 2)
	// Three spinners woken "simultaneously" all land somewhere; after the
	// dust settles both cores must be busy (idle balance pulls).
	var ths []*Thread
	for i := 0; i < 3; i++ {
		th := spinner(m, "s", 0, sim.Millisecond)
		ths = append(ths, th)
		th.Wake()
	}
	eng.RunUntil(60 * sim.Millisecond)
	if m.CPU(0).Curr() == nil || m.CPU(1).Curr() == nil {
		t.Fatal("a core sat idle with three runnable spinners")
	}
	for i, th := range ths {
		if cpuTime(th) < 20*sim.Millisecond {
			t.Fatalf("spinner %d starved: %v", i, cpuTime(th))
		}
	}
}

func TestReservedCPUExcludedFromCFS(t *testing.T) {
	eng, m := newMachine(t, 2)
	m.CPU(1).Reserve("agent")
	a := spinner(m, "a", 0, sim.Millisecond)
	a.Wake()
	eng.RunUntil(10 * sim.Millisecond)
	if m.CPU(1).Curr() != nil {
		t.Fatal("CFS scheduled onto a reserved core")
	}
	if onCPU(a) != 0 {
		t.Fatalf("thread on cpu %d", onCPU(a))
	}
	if m.CPU(1).reservedBy != "agent" {
		t.Fatal("reservation owner lost")
	}
	// A second thread, woken while a holds cpu 0, queues behind it and not
	// on the idle reserved core.
	b := spinner(m, "b", 0, sim.Millisecond)
	b.Wake()
	eng.RunUntil(20 * sim.Millisecond)
	if b.LastCPU() != 0 {
		t.Fatalf("second thread last ran on cpu %d, want 0", b.LastCPU())
	}
}

func TestPreemptDuringContextSwitchWindow(t *testing.T) {
	eng := sim.New(1)
	m := New(eng, Config{NumCPUs: 1})
	ran := false
	th := m.NewThread("w", 0, 0, func(th *Thread) {
		ran = true
		th.Exec(sim.Microsecond, func() { th.Exit() })
	})
	th.Wake()
	// Preempt halfway through the switch, before the continuation fires.
	eng.CallAt(ctxSwitchCost/2, func(any, uint64) {
		if got := m.CPU(0).PreemptCurrent(); got != th {
			t.Fatalf("preempted %v", got)
		}
		if ran {
			t.Fatal("continuation ran during switch window")
		}
		// Re-dispatch manually.
		m.CPU(0).StartThread(th, 0)
	}, nil, 0)
	eng.Run()
	if !ran || th.State() != ThreadDead {
		t.Fatalf("thread did not complete after mid-switch preemption: ran=%v state=%v", ran, th.State())
	}
}

func TestExecFromWrongStatePanics(t *testing.T) {
	eng, m := newMachine(t, 1)
	th := m.NewThread("w", 0, 0, func(th *Thread) { th.Exit() })
	defer func() {
		if recover() == nil {
			t.Fatal("Exec on blocked thread did not panic")
		}
	}()
	_ = eng
	th.Exec(1, func() {})
}

func TestWakeDeadPanics(t *testing.T) {
	eng, m := newMachine(t, 1)
	th := m.NewThread("w", 0, 0, func(th *Thread) { th.Exit() })
	th.Wake()
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("Wake on dead thread did not panic")
		}
	}()
	th.Wake()
}

func TestBusyTimeAccounting(t *testing.T) {
	eng, m := newMachine(t, 1)
	th := m.NewThread("w", 0, 0, func(th *Thread) {
		th.Exec(10*sim.Microsecond, func() { th.Exit() })
	})
	th.Wake()
	eng.Run()
	c := m.CPU(0)
	if c.BusyTime != 11*sim.Microsecond { // 1us switch + 10us work
		t.Fatalf("busy time = %v", c.BusyTime)
	}
	if c.Switches != 1 {
		t.Fatalf("switches = %d", c.Switches)
	}
}

// cpuTime reports the CPU t consumed, including the in-progress running
// span (threads that never deschedule still accrue).
func cpuTime(t *Thread) sim.Time {
	total := t.cpuTime
	if t.state == ThreadRunning {
		if ran := t.m.Eng.Now() - t.dispatchedAt; ran > 0 {
			total += ran
		}
	}
	return total
}

// onCPU returns the CPU currently running t, or -1.
func onCPU(t *Thread) CPUID {
	if t.cpu == nil {
		return -1
	}
	return t.cpu.id
}
