// Package sim provides the deterministic discrete-event engine that
// underpins the simulated end-host: a virtual clock in nanoseconds, a
// hierarchical timer wheel with stable FIFO ordering for simultaneous
// events, a free-list event pool with closure-free scheduling for the hot
// paths, and a seeded PRNG so that every experiment is exactly
// reproducible.
package sim

import (
	"fmt"
	"math/rand/v2"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is a distinct type so that virtual durations and wall-clock
// time.Duration values cannot be mixed up silently.
type Time int64

// Convenient duration units in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Micros reports t as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1000.0 }

// String formats the time as microseconds with nanosecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Callback is a reusable event callback for the closure-free scheduling
// path: the same stored func is shared by every event a subsystem
// schedules, with the per-event state carried in (arg, u) instead of a
// fresh capturing closure.
type Callback func(arg any, u uint64)

// Event lifecycle states.
const (
	statePending  uint8 = iota
	stateCanceled       // still occupying ready, swept when next visited
	stateFree           // recycled into the pool; gen has been bumped
)

// Where a pending event currently lives (for O(1) cancel).
const (
	locNone uint8 = iota
	locBucket
	locReady
)

// Event is one pooled schedule. Every event belongs to the engine's free
// list: it is recycled the moment it fires or is canceled, so no caller
// ever holds a raw *Event — Timer, generation-checked, is the one
// cancelable handle.
type Event struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	gen uint64 // bumped on every pool recycle; validates Timer handles
	u   uint64

	cb  Callback
	arg any

	prev, next *Event // intrusive bucket chain / free list

	state uint8
	loc   uint8
	level int8
	slot  int16
}

// Timer is a cancelable handle to a scheduled event. The zero Timer is inert.
// Handles are generation-checked: once the event fires or is canceled and
// the pool recycles it, a stale Timer observes the generation mismatch and
// reports inactive instead of aliasing the event's next incarnation.
type Timer struct {
	ev  *Event
	gen uint64
}

// Active reports whether the timer is still scheduled: not yet fired,
// canceled, or recycled.
func (tm Timer) Active() bool {
	return tm.ev != nil && tm.ev.gen == tm.gen && tm.ev.state == statePending
}

// When reports the scheduled fire time. Only meaningful while Active.
func (tm Timer) When() Time {
	if !tm.Active() {
		return 0
	}
	return tm.ev.at
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated entities run inside event callbacks.
type Engine struct {
	now      Time
	seq      uint64
	rng      *rand.Rand
	fired    uint64
	canceled uint64
	live     int // pending events across ready + wheel

	wheel wheel

	// ready is the sorted (by at, then seq) run queue: the spliced
	// contents of the bucket the wheel last advanced to, plus any events
	// scheduled into already-spliced buckets. head indexes the next
	// event to fire.
	ready []*Event
	head  int
	// deadReady counts lazily-canceled events still occupying ready.
	// Cancel-heavy workloads that never let the clock advance would
	// otherwise grow ready without bound; compactReady reclaims it once
	// dead entries dominate.
	deadReady int

	// free is the event pool (chained through Event.next).
	free *Event

	// Passive sampling hook (SetSampler). The hook rides on clock
	// advances instead of scheduled events: it consumes no sequence
	// numbers and no PRNG draws, so installing it cannot perturb the
	// (at, seq) FIFO order among simultaneous events — runs are
	// bit-identical with sampling on or off. Disabled cost is a single
	// nil check per fire.
	sampleFn     func(Time)
	samplePeriod Time
	sampleNext   Time
}

// New returns an engine whose PRNG is seeded deterministically from seed.
func New(seed uint64) *Engine {
	return &Engine{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic PRNG. All simulated randomness
// (service times, hash salts, policy get_prandom_u32) must come from here.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports how many events have executed, a cheap progress metric.
func (e *Engine) Fired() uint64 { return e.fired }

// Scheduled, Canceled and Pending report how many events were ever
// scheduled, how many were canceled before they fired, and how many are
// pending now. Every scheduled event is in exactly one of those states, so
// Scheduled = Fired + Canceled + Pending.
func (e *Engine) Scheduled() uint64 { return e.seq }
func (e *Engine) Canceled() uint64  { return e.canceled }
func (e *Engine) Pending() uint64   { return uint64(e.live) }

// schedule files a prepared event (callback fields already set) at
// absolute time t. Scheduling in the past panics: it always indicates a
// modeling bug, and silently clamping would corrupt causality.
func (e *Engine) schedule(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.state = statePending
	e.live++
	e.place(ev)
}

// CallAt schedules cb(arg, u) at absolute time t: fire-and-forget, zero
// allocations at steady state when cb is a stored func shared across
// schedules rather than a fresh closure.
func (e *Engine) CallAt(t Time, cb Callback, arg any, u uint64) {
	if cb == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.cb, ev.arg, ev.u = cb, arg, u
	e.schedule(ev, t)
}

// CallAfter schedules cb(arg, u) to run d nanoseconds from now.
func (e *Engine) CallAfter(d Time, cb Callback, arg any, u uint64) {
	e.CallAt(e.now+d, cb, arg, u)
}

// TimerAt is CallAt with a cancelable, generation-checked handle.
func (e *Engine) TimerAt(t Time, cb Callback, arg any, u uint64) Timer {
	if cb == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc()
	ev.cb, ev.arg, ev.u = cb, arg, u
	e.schedule(ev, t)
	return Timer{ev: ev, gen: ev.gen}
}

// TimerAfter is CallAfter with a cancelable, generation-checked handle.
func (e *Engine) TimerAfter(d Time, cb Callback, arg any, u uint64) Timer {
	return e.TimerAt(e.now+d, cb, arg, u)
}

// CancelTimer cancels a schedule. Stale handles (the event fired or
// was already canceled, even if since recycled for an unrelated schedule)
// are a safe no-op. Reports whether the timer was actually canceled.
func (e *Engine) CancelTimer(tm Timer) bool {
	if !tm.Active() {
		return false
	}
	e.cancelEvent(tm.ev)
	return true
}

func (e *Engine) cancelEvent(ev *Event) {
	ev.state = stateCanceled
	e.live--
	e.canceled++
	ev.cb, ev.arg = nil, nil
	if ev.loc == locBucket {
		// Eager unlink keeps buckets free of dead events and lets the
		// pool reuse the slot immediately (the cancel-heavy path).
		e.wheelUnlink(ev)
		e.recycle(ev)
		return
	}
	// A locReady entry is swept (and recycled) when its slice position is
	// next visited; compaction bounds how many dead entries can pile up
	// meanwhile.
	e.deadReady++
	if e.deadReady > 64 && 2*e.deadReady > len(e.ready)-e.head {
		e.compactReady()
	}
}

// compactReady squeezes canceled entries out of the ready queue,
// recycling them. Order among survivors is preserved.
func (e *Engine) compactReady() {
	kept := e.ready[:e.head] // fired prefix stays untouched
	for _, ev := range e.ready[e.head:] {
		if ev.state == statePending {
			kept = append(kept, ev)
			continue
		}
		e.recycle(ev)
	}
	for i := len(kept); i < len(e.ready); i++ {
		e.ready[i] = nil
	}
	e.ready = kept
	e.deadReady = 0
}

// alloc takes an event from the pool, or grows it.
func (e *Engine) alloc() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	return new(Event)
}

// recycle returns an event to the free list, bumping its generation
// so stale Timer handles cannot alias the next schedule that reuses it.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.state = stateFree
	ev.loc = locNone
	ev.cb, ev.arg = nil, nil
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// readyInsert files ev into the sorted ready queue (its bucket was already
// spliced). Position is found by binary search on (at, seq); events landing
// here during a firing cascade are typically near the tail.
func (e *Engine) readyInsert(ev *Event) {
	ev.loc = locReady
	lo, hi := e.head, len(e.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m := e.ready[mid]
		if m.at < ev.at || (m.at == ev.at && m.seq < ev.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.ready = append(e.ready, nil)
	copy(e.ready[lo+1:], e.ready[lo:])
	e.ready[lo] = ev
}

// spliceChain moves a freshly-advanced level-0 bucket into the ready
// queue, restoring (at, seq) order. The chain holds only pending events
// (cancel unlinks eagerly). The common case appends to an empty queue;
// leftovers (RunUntil stopping mid-bucket, cascade spill) merge correctly
// because their times precede the new bucket's range.
func (e *Engine) spliceChain(chain *Event) {
	if e.head == len(e.ready) {
		e.ready = e.ready[:0]
		e.head = 0
	}
	start := len(e.ready)
	for ev := chain; ev != nil; {
		next := ev.next
		ev.prev, ev.next = nil, nil
		ev.loc = locReady
		e.ready = append(e.ready, ev)
		ev = next
	}
	sortEvents(e.ready[start:])
}

// peek returns the next pending event without consuming it, advancing the
// wheel and sweeping canceled entries as needed. Returns nil when no
// events remain.
func (e *Engine) peek() *Event {
	for {
		for e.head < len(e.ready) {
			ev := e.ready[e.head]
			if ev.state == statePending {
				return ev
			}
			// Canceled while in the ready queue: sweep.
			e.head++
			e.deadReady--
			e.recycle(ev)
		}
		e.ready = e.ready[:0]
		e.head = 0
		e.deadReady = 0
		if !e.advance() {
			return nil
		}
	}
}

// fire pops ev (the current peek result) and runs its callback. The event
// is recycled before the callback so the pool slot is immediately
// reusable; the callback only sees the copied-out fields.
func (e *Engine) fire(ev *Event) {
	e.head++
	if ev.at < e.now {
		panic("sim: event wheel produced time regression")
	}
	e.now = ev.at
	if e.sampleFn != nil && e.now >= e.sampleNext {
		e.runSampler()
	}
	e.fired++
	e.live--
	cb, arg, u := ev.cb, ev.arg, ev.u
	e.recycle(ev)
	cb(arg, u)
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for {
		ev := e.peek()
		if ev == nil {
			return
		}
		e.fire(ev)
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled at t by other events at t still run.
func (e *Engine) RunUntil(t Time) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.fire(ev)
	}
	if e.now < t {
		e.now = t
		if e.sampleFn != nil && e.now >= e.sampleNext {
			e.runSampler()
		}
	}
}

// SetSampler installs fn as the engine's passive sampling hook: it is
// invoked once per elapsed period boundary, with the boundary time, the
// first time the clock reaches or crosses it. The hook runs before the
// event that advanced the clock, so it observes the simulated state as of
// the boundary. It must not schedule events or draw from the PRNG —
// sampling is an observer, and keeping it off the event queue is what
// makes runs bit-identical whether or not it is installed. A nil fn or
// non-positive period uninstalls the hook.
func (e *Engine) SetSampler(period Time, fn func(Time)) {
	if fn == nil || period <= 0 {
		e.sampleFn = nil
		e.samplePeriod, e.sampleNext = 0, 0
		return
	}
	e.sampleFn = fn
	e.samplePeriod = period
	e.sampleNext = e.now + period
}

// runSampler catches the hook up to the current clock: one call per
// period boundary in (prev, now]. Gaps between events are fine — gauges
// only change at events, so the state observed at each missed boundary is
// exactly the state that held then. Outlined to keep fire's hot path
// small.
func (e *Engine) runSampler() {
	for e.now >= e.sampleNext {
		e.sampleFn(e.sampleNext)
		e.sampleNext += e.samplePeriod
	}
}

// Ticker invokes fn every period until canceled. It is used for epoch-based
// agents (e.g., the token replenisher) and scheduler ticks. Each tick
// re-arms a Timer on the event the tick just gave back to the pool, so
// steady-state ticking allocates nothing.
type Ticker struct {
	e      *Engine
	period Time
	tm     Timer
	fn     func()
	done   bool
}

// NewTicker starts a ticker whose first tick fires one period from now.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{e: e, period: period, fn: fn}
	t.tm = e.TimerAfter(period, tickerTick, t, 0)
	return t
}

// tickerTick is the shared tick callback (package-level: one func for all
// tickers, selected by arg).
func tickerTick(arg any, _ uint64) {
	t := arg.(*Ticker)
	t.fn()
	if !t.done {
		t.tm = t.e.TimerAfter(t.period, tickerTick, t, 0)
	}
}

// Stop cancels the ticker.
func (t *Ticker) Stop() {
	t.done = true
	t.e.CancelTimer(t.tm)
}

// eventLess is the engine's total order: time, then schedule FIFO.
func eventLess(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// sortEvents sorts a spliced bucket by (at, seq) in place without
// allocating: insertion sort for the short chains the wheel usually
// produces, median-of-three quicksort above that.
func sortEvents(s []*Event) {
	for len(s) > 12 {
		// Median-of-three pivot to dodge sorted-input quadratics.
		m := len(s) / 2
		hi := len(s) - 1
		if eventLess(s[m], s[0]) {
			s[m], s[0] = s[0], s[m]
		}
		if eventLess(s[hi], s[m]) {
			s[hi], s[m] = s[m], s[hi]
			if eventLess(s[m], s[0]) {
				s[m], s[0] = s[0], s[m]
			}
		}
		pivot := s[m]
		i, j := 0, hi
		for i <= j {
			for eventLess(s[i], pivot) {
				i++
			}
			for eventLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(s)-i {
			sortEvents(s[:j+1])
			s = s[i:]
		} else {
			sortEvents(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && eventLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
