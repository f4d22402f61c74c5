package ghost_test

// Steady-state cost of the agent loop at the §5.3 shape: allocation gates
// and the in-package benchmark.

import (
	"testing"

	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// enclave is 36 GET-typed threads on 5 worker cores plus the agent core,
// every thread running burst-long bursts under GetPriority. yield says how
// a thread gives the core back: by Yield (it stays runnable, so the enclave
// is permanently oversubscribed) or by Block (it waits for the next cycle).
type enclave struct {
	eng   *sim.Engine
	agent *ghost.Agent
	ths   []*kernel.Thread
}

func newEnclave(burst sim.Time, yield bool) *enclave {
	const threads, cpus = 36, 6
	e := &enclave{eng: sim.New(1)}
	m := kernel.New(e.eng, kernel.Config{NumCPUs: cpus})
	workers := make([]kernel.CPUID, cpus-1)
	for i := range workers {
		workers[i] = kernel.CPUID(i)
	}
	pol := &policy.GetPriority{TypeOf: func(*kernel.Thread) uint64 { return policy.ReqGET }}
	e.agent = ghost.NewAgent(m, 1, pol, cpus-1, workers, ghost.Config{})
	for i := 0; i < threads; i++ {
		var th *kernel.Thread
		var run, done func()
		run = func() { th.Exec(burst, done) }
		done = func() {
			if yield {
				th.Yield(run)
			} else {
				th.Block(run)
			}
		}
		th = m.NewThread("w", 1, 0, func(*kernel.Thread) { run() })
		e.ths = append(e.ths, th)
		if err := e.agent.Register(th); err != nil {
			panic(err)
		}
	}
	return e
}

// cycle wakes every thread and runs until all have had their burst and
// blocked again: 36 wake-ups worth of batches, decisions and commits.
func (e *enclave) cycle() {
	for _, th := range e.ths {
		th.Wake()
	}
	e.eng.Run()
}

// TestZeroAllocInvokePolicy: once warm, message batch → Schedule → commit →
// dispatch → block allocates nothing.
func TestZeroAllocInvokePolicy(t *testing.T) {
	e := newEnclave(10*sim.Microsecond, false)
	e.cycle()
	before := e.agent.Commits
	if n := testing.AllocsPerRun(50, e.cycle); n != 0 {
		t.Fatalf("agent cycle allocates %.1f times per 36 wake-ups", n)
	}
	if e.agent.Commits == before || e.agent.Runnable() != 0 {
		t.Fatalf("cycle did no work: commits %d -> %d, runnable %d", before, e.agent.Commits, e.agent.Runnable())
	}
}

// TestZeroAllocCommitsUnderOverload: under sustained overload — always more
// runnable threads than cores, so a commit is in flight at every instant —
// the agent keeps no per-commit state that could grow: 10^5 commits
// allocate nothing. (Commits used to queue in a slice that was only
// truncated when none was in flight, so here it grew for the whole run.)
func TestZeroAllocCommitsUnderOverload(t *testing.T) {
	e := newEnclave(3*sim.Microsecond, true)
	for _, th := range e.ths {
		th.Wake()
	}
	e.eng.RunUntil(sim.Millisecond) // warm the event pool and scratch
	start, until := e.agent.Commits, e.eng.Now()
	if n := testing.AllocsPerRun(1, func() {
		until += 200 * sim.Millisecond
		e.eng.RunUntil(until)
	}); n != 0 {
		t.Fatalf("overloaded agent allocates %.0f times per 200 ms", n)
	}
	if got := e.agent.Commits - start; got < 100_000 {
		t.Fatalf("only %d commits; want >= 1e5 with commits always in flight", got)
	}
	if e.agent.Runnable() < 2*5 {
		t.Fatalf("enclave not oversubscribed: %d runnable", e.agent.Runnable())
	}
}

// BenchmarkAgentDecision: one op is a full cycle of 36 wake-ups through 5
// cores; ns/decision divides it by the policy invocations it took.
func BenchmarkAgentDecision(b *testing.B) {
	e := newEnclave(10*sim.Microsecond, false)
	e.cycle()
	runs := e.agent.Hook().Stats().Runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cycle()
	}
	b.StopTimer()
	if d := e.agent.Hook().Stats().Runs - runs; d > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(d), "ns/decision")
		b.ReportMetric(float64(d)/float64(b.N), "decisions/op")
	}
}
