package ghost

// Fault-path coverage for the agent: injected stalls delay dispatch by
// the spec's duration, injected commit drops recover via the failed-txn
// path, and Stop/Resume quiesces without losing threads.

import (
	"testing"

	"syrup/internal/faults"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/sim"
)

func TestInjectedAgentStallDelaysDispatch(t *testing.T) {
	run := func(plan *faults.Plan) sim.Time {
		eng := sim.New(1)
		m := kernel.New(eng, kernel.Config{NumCPUs: 2})
		a := NewAgent(&hook.Host{Eng: eng, Faults: plan.Compile(1, eng.Now)}, m, 7, fifoPolicy(), 0, []kernel.CPUID{1})
		var startedAt sim.Time
		th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
			startedAt = eng.Now()
			th.Exec(sim.Microsecond, func() { th.Exit() })
		})
		a.Register(th)
		th.Wake()
		eng.Run()
		if plan != nil && a.Stalls == 0 {
			t.Fatal("stall never fired")
		}
		return startedAt
	}
	clean := run(nil)
	stall := 80 * sim.Microsecond
	plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteGhostStall, Every: 1, Stall: stall}}}
	delayed := run(plan)
	// Two batches fire (created, wakeup), each stalled.
	if got := delayed - clean; got != 2*stall {
		t.Fatalf("stall delayed dispatch by %d ns, want %d", got, 2*stall)
	}
}

func TestInjectedCommitDropRecovers(t *testing.T) {
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: 2})
	// Drop the first commit; the retry (via the kicked policy) goes through.
	plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteGhostCommit, Every: 1, Max: 1}}}
	a := NewAgent(&hook.Host{Eng: eng, Faults: plan.Compile(1, eng.Now)}, m, 7, fifoPolicy(), 0, []kernel.CPUID{1})

	done := false
	th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
		th.Exec(sim.Microsecond, func() {
			done = true
			th.Exit()
		})
	})
	a.Register(th)
	th.Wake()
	eng.Run()
	if a.CommitDrops != 1 {
		t.Fatalf("commit drops = %d, want 1", a.CommitDrops)
	}
	if !done {
		t.Fatal("thread never ran after a dropped commit")
	}
	if a.Commits < 2 {
		t.Fatalf("commits = %d, want a retry after the drop", a.Commits)
	}
}

func TestStopResumeQuiesces(t *testing.T) {
	eng, m, a := setup(t, 2, fifoPolicy())
	done := false
	th := m.NewThread("w", 7, m.AffinityAll(), func(th *kernel.Thread) {
		th.Exec(sim.Microsecond, func() {
			done = true
			th.Exit()
		})
	})
	a.Register(th)
	a.Stop()
	th.Wake()
	eng.Run()
	if done {
		t.Fatal("stopped agent dispatched a thread")
	}
	if !a.stopped {
		t.Fatal("stopped = false after Stop")
	}
	a.Resume()
	eng.Run()
	if !done {
		t.Fatal("resumed agent never drained its queue")
	}
}
