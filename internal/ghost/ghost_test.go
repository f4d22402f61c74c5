package ghost

import (
	"testing"

	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/sim"
)

// fifoPolicy places runnable threads on idle cores in order.
func fifoPolicy() Policy {
	return PolicyFunc(func(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement {
		var out []Placement
		i := 0
		for _, c := range cpus {
			if c.Curr != nil {
				continue
			}
			if i >= len(runnable) {
				break
			}
			out = append(out, Placement{Thread: runnable[i], CPU: c.ID})
			i++
		}
		return out
	})
}

func setup(t *testing.T, cpus int, policy Policy) (*sim.Engine, *kernel.Machine, *Agent) {
	t.Helper()
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: cpus})
	workers := make([]kernel.CPUID, cpus-1)
	for i := range workers {
		workers[i] = kernel.CPUID(i + 1)
	}
	a := NewAgent(&hook.Host{Eng: eng}, m, 7, policy, 0, workers)
	return eng, m, a
}

func TestAgentSchedulesRegisteredThread(t *testing.T) {
	eng, m, a := setup(t, 2, fifoPolicy())
	done := false
	th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
		th.Exec(10*sim.Microsecond, func() {
			done = true
			th.Exit()
		})
	})
	if err := a.Register(th); err != nil {
		t.Fatal(err)
	}
	th.Wake()
	eng.Run()
	if !done {
		t.Fatal("ghost thread never ran")
	}
	if a.Messages == 0 || a.Commits != 1 {
		t.Fatalf("agent stats: msgs=%d commits=%d", a.Messages, a.Commits)
	}
}

func TestAgentRejectsForeignApp(t *testing.T) {
	_, m, a := setup(t, 2, fifoPolicy())
	foreign := m.NewThread("intruder", 8, m.AffinityAll(), func(th *kernel.Thread) { th.Exit() })
	if err := a.Register(foreign); err == nil {
		t.Fatal("agent accepted a thread from another application")
	}
}

func TestAgentLatencyIncludesMessageAndCommitCosts(t *testing.T) {
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: 2})
	a := NewAgent(&hook.Host{Eng: eng}, m, 7, fifoPolicy(), 0, []kernel.CPUID{1})
	var startedAt sim.Time
	th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
		startedAt = eng.Now()
		th.Exec(sim.Microsecond, func() { th.Exit() })
	})
	a.Register(th)
	eng.Run() // drain the THREAD_CREATED message
	wakeAt := eng.Now()
	th.Wake()
	eng.Run()
	// wake → message + commit + context switch at minimum.
	if want := perMessageCost + commitCost + cfsStartDelay(); startedAt-wakeAt < want {
		t.Fatalf("ghost dispatch latency %v too low, want at least %v; costs not charged", startedAt-wakeAt, want)
	}
}

// cfsStartDelay is how long a woken thread on an idle CFS core waits to
// start: the kernel's context switch.
func cfsStartDelay() sim.Time {
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: 1})
	var startedAt sim.Time
	m.NewThread("w", 0, 0, func(th *kernel.Thread) {
		startedAt = eng.Now()
		th.Exit()
	}).Wake()
	eng.Run()
	return startedAt
}

func TestAgentPreemption(t *testing.T) {
	// Priority policy: "hi"-named threads preempt others.
	prio := PolicyFunc(func(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement {
		var out []Placement
		used := map[kernel.CPUID]bool{}
		// First place high-priority threads, preempting if needed.
		for _, th := range runnable {
			if th.Name != "hi" {
				continue
			}
			for _, c := range cpus {
				if used[c.ID] {
					continue
				}
				if c.Curr == nil || c.Curr.Name != "hi" {
					out = append(out, Placement{Thread: th, CPU: c.ID, Preempt: c.Curr != nil})
					used[c.ID] = true
					break
				}
			}
		}
		for _, th := range runnable {
			if th.Name == "hi" {
				continue
			}
			for _, c := range cpus {
				if !used[c.ID] && c.Curr == nil {
					out = append(out, Placement{Thread: th, CPU: c.ID})
					used[c.ID] = true
					break
				}
			}
		}
		return out
	})
	eng, m, a := setup(t, 2, prio) // one worker core
	var loDone, hiDoneAt sim.Time
	lo := m.NewThread("lo", 7, m.AffinityAll(), func(th *kernel.Thread) {
		th.Exec(700*sim.Microsecond, func() {
			loDone = eng.Now()
			th.Exit()
		})
	})
	hi := m.NewThread("hi", 7, m.AffinityAll(), func(th *kernel.Thread) {
		th.Exec(10*sim.Microsecond, func() {
			hiDoneAt = eng.Now()
			th.Exit()
		})
	})
	a.Register(lo)
	a.Register(hi)
	lo.Wake()
	eng.RunUntil(100 * sim.Microsecond) // lo is mid-burst
	hi.Wake()
	eng.Run()
	if hiDoneAt == 0 || loDone == 0 {
		t.Fatalf("threads did not finish: hi=%v lo=%v", hiDoneAt, loDone)
	}
	// hi must finish long before lo's 700us burst would have.
	if hiDoneAt > 200*sim.Microsecond {
		t.Fatalf("hi finished at %v; preemption did not happen", hiDoneAt)
	}
	if loDone < 700*sim.Microsecond {
		t.Fatalf("lo finished at %v despite being preempted", loDone)
	}
	if a.Preempts != 1 {
		t.Fatalf("preempts = %d", a.Preempts)
	}
}

func TestAgentReservesCores(t *testing.T) {
	_, m, _ := setup(t, 3, fifoPolicy())
	// The agent and enclave reserve all three cores, so CFS must not use
	// them: a CFS thread has nowhere to go → panic on wake (no allowed
	// unreserved CPU).
	th := m.NewThread("cfs", 0, m.AffinityAll(), func(th *kernel.Thread) { th.Exit() })
	defer func() {
		if recover() == nil {
			t.Fatal("CFS scheduled onto reserved enclave cores")
		}
	}()
	th.Wake()
}

func TestAgentManyThreadsFewCores(t *testing.T) {
	// 12 threads on 2 worker cores, FIFO: all must eventually run.
	eng, m, a := setup(t, 3, fifoPolicy())
	doneCount := 0
	for i := 0; i < 12; i++ {
		th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
			th.Exec(50*sim.Microsecond, func() {
				doneCount++
				th.Exit()
			})
		})
		if err := a.Register(th); err != nil {
			t.Fatal(err)
		}
		th.Wake()
	}
	eng.Run()
	if doneCount != 12 {
		t.Fatalf("only %d/12 ghost threads completed", doneCount)
	}
	if a.Runnable() != 0 {
		t.Fatalf("runnable set not drained: %d", a.Runnable())
	}
}

func TestAgentBlockingThreadsReschedule(t *testing.T) {
	eng, m, a := setup(t, 2, fifoPolicy())
	cycles := 0
	var th *kernel.Thread
	var loop func()
	loop = func() {
		th.Exec(10*sim.Microsecond, func() {
			cycles++
			if cycles == 5 {
				th.Exit()
				return
			}
			th.Block(loop)
		})
	}
	th = m.NewThread("w", 7, m.AffinityAll(), func(*kernel.Thread) { loop() })
	a.Register(th)
	th.Wake()
	// Re-wake after each block.
	for i := 0; i < 10; i++ {
		eng.Run()
		if th.State() == kernel.ThreadBlocked {
			th.Wake()
		}
	}
	if cycles != 5 {
		t.Fatalf("cycles = %d", cycles)
	}
}

// The runnable slice a policy is handed is scratch: reordering it in place
// (a policy sorting by its own priority) must not disturb the agent's set.
func TestPolicyMayReorderScratch(t *testing.T) {
	reversing := PolicyFunc(func(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement {
		for i, j := 0, len(runnable)-1; i < j; i, j = i+1, j-1 {
			runnable[i], runnable[j] = runnable[j], runnable[i]
		}
		return fifoPolicy().Schedule(now, runnable, cpus)
	})
	eng, m, a := setup(t, 3, reversing)
	done := 0
	for i := 0; i < 12; i++ {
		th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
			th.Exec(50*sim.Microsecond, func() {
				done++
				th.Exit()
			})
		})
		a.Register(th)
		th.Wake()
	}
	eng.Run()
	if done != 12 || a.Runnable() != 0 {
		t.Fatalf("%d/12 threads completed, %d still runnable", done, a.Runnable())
	}
}

func TestPolicyPanicsOnBadPlacement(t *testing.T) {
	bad := PolicyFunc(func(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement {
		return []Placement{{Thread: runnable[0], CPU: 99}}
	})
	eng, m, a := setup(t, 2, bad)
	th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) { th.Exit() })
	a.Register(th)
	th.Wake()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-enclave placement did not panic")
		}
	}()
	eng.Run()
}

func TestMsgTypeStrings(t *testing.T) {
	for _, mt := range []MsgType{MsgThreadCreated, MsgThreadWakeup, MsgThreadBlocked, MsgThreadPreempted, MsgThreadDead} {
		if mt.String() == "?" {
			t.Fatalf("missing string for %d", int(mt))
		}
	}
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement

// Schedule implements Policy.
func (f PolicyFunc) Schedule(now sim.Time, runnable []*kernel.Thread, cpus []CPUView) []Placement {
	return f(now, runnable, cpus)
}
