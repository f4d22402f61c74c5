package ghost_test

// Decision-trace pins for the agent loop. The values below were recorded
// on the commit before the runnable set became an ID-ordered slice and the
// policies started reusing scratch; they pin every decision's inputs
// (runnable order, per-core incumbents), every placement, every commit's
// issue and landing instant, and every dispatch, so a change to the
// agent's bookkeeping cannot move a placement by even one event.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"syrup/internal/faults"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// traceSink folds the observed sequence into one FNV-1a digest.
type traceSink struct {
	h   hash.Hash64
	buf [8]byte
}

func (s *traceSink) add(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(s.buf[:], uint64(v))
		s.h.Write(s.buf[:])
	}
}

// recordingPolicy hashes each decision's inputs and outputs on the way
// through; it copies what it needs and retains neither slice.
type recordingPolicy struct {
	inner     ghost.Policy
	sink      *traceSink
	decisions int
}

func (r *recordingPolicy) Schedule(now sim.Time, runnable []*kernel.Thread, cpus []ghost.CPUView) []ghost.Placement {
	r.decisions++
	r.sink.add(int64(now), int64(len(runnable)))
	for _, t := range runnable {
		r.sink.add(int64(t.ID))
	}
	for _, c := range cpus {
		curr := int64(0)
		if c.Curr != nil {
			curr = int64(c.Curr.ID)
		}
		r.sink.add(int64(c.ID), curr)
	}
	out := r.inner.Schedule(now, runnable, cpus)
	r.sink.add(int64(len(out)))
	for _, pl := range out {
		pre := int64(0)
		if pl.Preempt {
			pre = 1
		}
		r.sink.add(int64(now), int64(pl.Thread.ID), int64(pl.CPU), pre)
	}
	return out
}

type traceResult struct {
	digest                               uint64
	decisions, dispatches                int
	messages, commits, preempts, drops   uint64
	commitSpans, runnableLeft, completed int
}

// runDecisionTrace drives the §5.3 shape — 36 threads on 5 worker cores
// plus the agent core, short GETs with a sprinkle of 700 µs SCANs — from a
// seeded arrival process for 20 ms of simulated time. mk builds the policy
// from the per-thread type lookup (the scan_state map's role).
func runDecisionTrace(seed uint64, mk func(typeOf func(*kernel.Thread) uint64) ghost.Policy, plan *faults.Plan) traceResult {
	const (
		threads = 36
		cpus    = 6
		horizon = 20 * sim.Millisecond
	)
	eng := sim.New(seed)
	m := kernel.New(eng, kernel.Config{NumCPUs: cpus})
	sink := &traceSink{h: fnv.New64a()}
	// types[tid] is what the thread is processing (GET when idle, as the
	// server's finishOp leaves it); pending[tid] is the request it will
	// pick up once dispatched.
	types := make([]uint64, threads+1)
	pending := make([]uint64, threads+1)
	for i := range types {
		types[i] = policy.ReqGET
	}
	rec := &recordingPolicy{sink: sink, inner: mk(func(t *kernel.Thread) uint64 { return types[t.ID] })}
	workers := make([]kernel.CPUID, cpus-1)
	for i := range workers {
		workers[i] = kernel.CPUID(i)
	}
	agent := ghost.NewAgent(m, 1, rec, cpus-1, workers, ghost.Config{})
	tr := trace.New(1 << 16)
	agent.SetTracer(tr)
	if plan != nil {
		agent.SetFaults(plan.Compile(seed, eng.Now))
	}

	var res traceResult
	rng := rand.New(rand.NewPCG(seed, 0x5ca9))
	ths := make([]*kernel.Thread, threads)
	for i := range ths {
		var th *kernel.Thread
		var loop func()
		loop = func() {
			res.dispatches++
			sink.add(int64(eng.Now()), int64(th.ID), int64(th.LastCPU()))
			types[th.ID] = pending[th.ID]
			d := 10*sim.Microsecond + sim.Time(rng.Int64N(2000))
			if types[th.ID] == policy.ReqSCAN {
				d = 700 * sim.Microsecond
			}
			th.Exec(d, func() {
				res.completed++
				types[th.ID] = policy.ReqGET
				th.Block(loop)
			})
		}
		th = m.NewThread("w", 1, 0, func(*kernel.Thread) { loop() })
		ths[i] = th
		if err := agent.Register(th); err != nil {
			panic(err)
		}
	}
	var arrive sim.Callback
	arrive = func(any, uint64) {
		if eng.Now() >= horizon {
			return
		}
		th := ths[rng.IntN(threads)]
		if th.State() == kernel.ThreadBlocked {
			pending[th.ID] = policy.ReqGET
			if rng.IntN(100) < 3 {
				pending[th.ID] = policy.ReqSCAN
			}
			th.Wake()
		}
		eng.CallAfter(1+sim.Time(rng.Int64N(7000)), arrive, nil, 0)
	}
	eng.CallAfter(sim.Microsecond, arrive, nil, 0)
	eng.Run()

	for _, sp := range tr.Spans() {
		if sp.Policy != "commit" {
			continue
		}
		res.commitSpans++
		sink.add(int64(sp.Start), int64(sp.End), int64(sp.Req), int64(sp.Executor))
	}
	res.digest = sink.h.Sum64()
	res.decisions = rec.decisions
	res.messages, res.commits, res.preempts, res.drops = agent.Messages, agent.Commits, agent.Preempts, agent.CommitDrops
	res.runnableLeft = agent.Runnable()
	return res
}

func getPriority(typeOf func(*kernel.Thread) uint64) ghost.Policy {
	return &policy.GetPriority{TypeOf: typeOf}
}

func fifo(func(*kernel.Thread) uint64) ghost.Policy { return &policy.FIFO{} }

func TestDecisionTracePinned(t *testing.T) {
	commitFaults := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteGhostCommit, Prob: 0.05}}}
	for _, tc := range []struct {
		name string
		seed uint64
		mk   func(func(*kernel.Thread) uint64) ghost.Policy
		plan *faults.Plan
		want traceResult
	}{
		{name: "get_priority", seed: 7, mk: getPriority, want: traceResult{
			digest: 1550495991770024347, decisions: 9967, dispatches: 2660, messages: 8132, commits: 8150,
			preempts: 2776, commitSpans: 8150, completed: 2660}},
		{name: "get_priority_seed11", seed: 11, mk: getPriority, want: traceResult{
			digest: 3134769239636690172, decisions: 12445, dispatches: 3225, messages: 9889, commits: 10712,
			preempts: 3403, commitSpans: 10712, completed: 3225}},
		{name: "fifo", seed: 7, mk: fifo, want: traceResult{
			digest: 12629810977719896603, decisions: 7326, dispatches: 3140, messages: 6316, commits: 5106,
			commitSpans: 5106, completed: 3140}},
		{name: "get_priority_commit_faults", seed: 7, mk: getPriority, plan: commitFaults, want: traceResult{
			digest: 13885445057843481259, decisions: 10423, dispatches: 2687, messages: 8197, commits: 8756,
			preempts: 2787, drops: 484, commitSpans: 8756, completed: 2687}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runDecisionTrace(tc.seed, tc.mk, tc.plan)
			if got.commitSpans != int(got.commits) {
				t.Errorf("commit spans %d != commits %d (ring too small?)", got.commitSpans, got.commits)
			}
			if got != tc.want {
				t.Errorf("decision trace moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
