package kernel

import (
	"container/heap"

	"syrup/internal/sim"
)

// The CFS model's tunables, at their Linux defaults.
const (
	// schedLatency is the targeted period in which every runnable thread
	// runs once (sysctl_sched_latency).
	schedLatency = 6 * sim.Millisecond
	// minGranularity floors a thread's timeslice.
	minGranularity = 750 * sim.Microsecond
	// wakeupGranularity is the vruntime lead a waking thread needs over
	// the running one to preempt it. This is the knob that makes CFS
	// "oblivious" (§5.3): a waker placed at min_vruntime only preempts a
	// thread that has already overrun its fair share by more than the
	// granularity, so sub-millisecond request bursts (a 700 µs SCAN) are
	// never preempted for a waking GET thread.
	wakeupGranularity = 1 * sim.Millisecond
)

// cfsQueue is a per-CPU runqueue ordered by vruntime.
type cfsQueue struct {
	threads     []*Thread
	minVruntime sim.Time
}

func (q *cfsQueue) Len() int           { return len(q.threads) }
func (q *cfsQueue) Less(i, j int) bool { return q.threads[i].vruntime < q.threads[j].vruntime }
func (q *cfsQueue) Swap(i, j int)      { q.threads[i], q.threads[j] = q.threads[j], q.threads[i] }
func (q *cfsQueue) Push(x any)         { q.threads = append(q.threads, x.(*Thread)) }
func (q *cfsQueue) Pop() any {
	old := q.threads
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	q.threads = old[:n-1]
	return t
}

func (q *cfsQueue) peek() *Thread {
	if len(q.threads) == 0 {
		return nil
	}
	return q.threads[0]
}

// CFS is the default scheduling class: per-core runqueues, vruntime
// fairness, wakeup preemption bounded by wakeupGranularity, timeslice
// preemption, and idle-pull balancing.
type CFS struct {
	m      *Machine
	queues []cfsQueue

	// sliceCB is the stored timeslice-expiry callback (arg = *CPU, u =
	// thread ID), shared by every armSliceTimer so the per-dispatch hot
	// path schedules on a pooled timer without allocating.
	sliceCB sim.Callback
}

func newCFS(m *Machine) *CFS {
	s := &CFS{m: m, queues: make([]cfsQueue, len(m.cpus))}
	s.sliceCB = func(arg any, u uint64) {
		c := arg.(*CPU)
		c.sliceTimer = sim.Timer{}
		t := c.curr
		// Thread IDs are unique, so an ID match means the timer's thread
		// is still the one on the core.
		if t == nil || uint64(t.ID) != u || t.state != ThreadRunning {
			return
		}
		if s.queues[c.id].Len() == 0 {
			// Nothing to switch to; extend.
			s.armSliceTimer(c, t)
			return
		}
		t.preempt()
		heap.Push(&s.queues[c.id], t)
		s.dispatch(c)
	}
	return s
}

// Ready implements SchedClass: wake placement + possible wakeup preemption.
func (s *CFS) Ready(t *Thread) {
	c := s.selectCPU(t)
	q := &s.queues[c.id]

	// Sleeper placement: don't let long sleepers hoard vruntime, don't
	// give short sleepers extra credit. Placing every sleeper at
	// min_vruntime reproduces the request-oblivious behaviour the paper
	// measured.
	if t.vruntime < q.minVruntime {
		t.vruntime = q.minVruntime
	}

	if c.curr == nil && c.reservedBy == "" {
		t.lastCPU = c.id // record placement
		heap.Push(q, t)
		s.dispatch(c)
		return
	}
	heap.Push(q, t)
	// Wakeup preemption: only if the wakee's vruntime lead over the
	// running thread exceeds the granularity.
	if curr := c.curr; curr != nil && curr.class == s {
		currVruntime := curr.vruntime + (s.m.Eng.Now() - curr.dispatchedAt)
		if currVruntime-t.vruntime > wakeupGranularity {
			curr.preempt()
			heap.Push(&s.queues[c.id], curr)
			s.dispatch(c)
		}
	}
}

// Descheduled implements SchedClass.
func (s *CFS) Descheduled(t *Thread, cpu *CPU) {
	s.dispatch(cpu)
}

// Yielded implements SchedClass.
func (s *CFS) Yielded(t *Thread, cpu *CPU) {
	// Push vruntime to the back of the queue so others run first.
	if next := s.queues[cpu.id].peek(); next != nil && t.vruntime < next.vruntime {
		t.vruntime = next.vruntime
	}
	heap.Push(&s.queues[cpu.id], t)
	s.dispatch(cpu)
}

// selectCPU picks where a waking thread goes: previous CPU if idle, else
// any idle allowed CPU, else the allowed CPU with the shortest runqueue.
func (s *CFS) selectCPU(t *Thread) *CPU {
	if t.lastCPU >= 0 && t.allowedOn(t.lastCPU) {
		prev := s.m.cpus[t.lastCPU]
		if prev.curr == nil && prev.reservedBy == "" && s.queues[prev.id].Len() == 0 {
			return prev
		}
	}
	var best *CPU
	bestLen := int(^uint(0) >> 1)
	for _, c := range s.m.cpus {
		if c.reservedBy != "" || !t.allowedOn(c.id) {
			continue
		}
		l := s.queues[c.id].Len()
		if c.curr != nil {
			l++
		}
		if l == 0 {
			return c
		}
		if l < bestLen {
			best, bestLen = c, l
		}
	}
	if best == nil {
		panic("kernel: thread has no allowed un-reserved CPU")
	}
	return best
}

// dispatch fills an idle CPU from its queue, pulling from the busiest
// sibling when the local queue is empty (idle balance).
func (s *CFS) dispatch(c *CPU) {
	if c.curr != nil || c.reservedBy != "" {
		return
	}
	q := &s.queues[c.id]
	if q.Len() == 0 {
		s.idlePull(c)
		if q.Len() == 0 {
			return
		}
	}
	t := heap.Pop(q).(*Thread)
	if t.vruntime > q.minVruntime {
		q.minVruntime = t.vruntime
	}
	c.StartThread(t, 0)
	s.armSliceTimer(c, t)
}

// idlePull steals the longest-waiting eligible thread from the deepest
// sibling queue.
func (s *CFS) idlePull(c *CPU) {
	var victim *cfsQueue
	var victimIdx int = -1
	best := 0
	for i := range s.queues {
		if CPUID(i) == c.id || s.m.cpus[i].reservedBy != "" {
			continue
		}
		if l := s.queues[i].Len(); l > best {
			// Find one eligible thread before committing.
			for j, t := range s.queues[i].threads {
				if t.allowedOn(c.id) {
					victim, victimIdx, best = &s.queues[i], j, l
					break
				}
			}
		}
	}
	if victim == nil {
		return
	}
	t := victim.threads[victimIdx]
	heap.Remove(victim, victimIdx)
	heap.Push(&s.queues[c.id], t)
}

// armSliceTimer schedules a timeslice-expiry preemption check.
func (s *CFS) armSliceTimer(c *CPU, t *Thread) {
	nr := s.queues[c.id].Len() + 1
	slice := schedLatency / sim.Time(nr)
	if slice < minGranularity {
		slice = minGranularity
	}
	c.sliceTimer = s.m.Eng.TimerAfter(slice, s.sliceCB, c, uint64(t.ID))
}
