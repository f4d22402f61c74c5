package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file proves the timer-wheel engine preserves the seed engine's
// semantics: a minimal reference implementation of the original
// container/heap core (refEngine) is driven through randomized
// schedule/cancel/RunUntil traces in lockstep with the real engine, and
// the fired sequences must match exactly — including FIFO order among
// same-timestamp events and events scheduled exactly at RunUntil
// boundaries.

// refEvent / refEngine replicate the seed engine's (at, seq) binary heap
// with lazy cancellation.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (e *refEngine) at(t Time, fn func()) *refEvent {
	if t < e.now {
		panic("ref: scheduling in the past")
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) { ev.fn = nil }

func (e *refEngine) step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.fn == nil {
			continue // lazily canceled
		}
		e.now = ev.at
		fn := ev.fn
		ev.fn = nil
		fn()
		return true
	}
	return false
}

func (e *refEngine) runUntil(t Time) {
	for len(e.events) > 0 {
		if e.events[0].fn == nil {
			heap.Pop(&e.events)
			continue
		}
		if e.events[0].at > t {
			break
		}
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

func (e *refEngine) run() {
	for e.step() {
	}
}

// traceRule is one event's scripted behaviour when it fires: spawn
// children at given deltas and cancel earlier events by id. Rules are
// created once per id (lazily, in firing order) so both engines execute
// the identical script.
type traceRule struct {
	children []Time
	cancels  []int
}

// traceDelta draws a delay from ranges chosen to cover every wheel
// regime: same-bucket ties (0..~1µs), nearby buckets, deep cascade
// levels, and the overflow list beyond the wheel horizon.
func traceDelta(rng *rand.Rand) Time {
	switch rng.Intn(10) {
	case 0:
		return 0 // simultaneous with the parent
	case 1, 2, 3:
		return Time(rng.Int63n(1 << 10)) // inside one level-0 bucket
	case 4, 5, 6:
		return Time(rng.Int63n(1 << 18)) // levels 0-1
	case 7, 8:
		return Time(rng.Int63n(1 << 40)) // deep cascade levels
	default:
		return Time(rng.Int63n(1 << 62)) // beyond the horizon: overflow
	}
}

// traceClamp bounds child timestamps so chains of overflow-range deltas
// cannot wrap int64; clamping produces exact ties, which both engines
// must order identically anyway.
func traceClamp(now, d Time) Time {
	const cap = Time(1) << 62
	at := now + d
	if at < now || at > cap {
		return cap
	}
	return at
}

// diffTrace runs one randomized trace through both engines and compares
// fired sequences and clocks at every RunUntil boundary and after the
// final drain.
func diffTrace(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))

	const roots = 120
	const maxEvents = 1500

	eng := New(uint64(seed))
	ref := &refEngine{}

	var gotW, gotR []int
	wheelHandles := map[int]Timer{}
	refHandles := map[int]*refEvent{}
	rules := map[int]traceRule{}
	nextW, nextR := roots, roots // child id counters, one per engine

	ruleFor := func(id, scheduled int) traceRule {
		if r, ok := rules[id]; ok {
			return r
		}
		r := traceRule{}
		if scheduled < maxEvents {
			for i, n := 0, rng.Intn(3); i < n; i++ {
				r.children = append(r.children, traceDelta(rng))
			}
		}
		if id > 0 && rng.Intn(2) == 0 {
			r.cancels = append(r.cancels, rng.Intn(id))
		}
		rules[id] = r
		return r
	}

	// Every schedule keeps its Timer: a cancel rule may name an event that
	// already fired, whose handle the generation check must have retired.
	var fireWheel func(id int)
	fireCB := func(_ any, u uint64) { fireWheel(int(u)) }
	scheduleWheel := func(at Time, id int) {
		wheelHandles[id] = eng.TimerAt(at, fireCB, nil, uint64(id))
	}
	fireWheel = func(id int) {
		gotW = append(gotW, id)
		rule := ruleFor(id, nextW)
		for _, c := range rule.cancels {
			eng.CancelTimer(wheelHandles[c])
		}
		for _, d := range rule.children {
			cid := nextW
			nextW++
			scheduleWheel(traceClamp(eng.Now(), d), cid)
		}
	}

	var fireRef func(id int)
	scheduleRef := func(at Time, id int) {
		id2 := id
		refHandles[id2] = ref.at(at, func() { fireRef(id2) })
	}
	fireRef = func(id int) {
		gotR = append(gotR, id)
		rule := ruleFor(id, nextR)
		for _, c := range rule.cancels {
			if ev, ok := refHandles[c]; ok {
				ref.cancel(ev)
			}
		}
		for _, d := range rule.children {
			cid := nextR
			nextR++
			scheduleRef(traceClamp(ref.now, d), cid)
		}
	}

	// Roots: random times plus deliberate exact-duplicate timestamps.
	var rootTimes []Time
	for i := 0; i < roots; i++ {
		var at Time
		if i%10 < 3 && len(rootTimes) > 0 {
			at = rootTimes[rng.Intn(len(rootTimes))]
		} else {
			at = traceDelta(rng)
		}
		rootTimes = append(rootTimes, at)
		scheduleWheel(at, i)
		scheduleRef(at, i)
	}

	// Drive in stages: RunUntil boundaries (some landing exactly on event
	// timestamps), then drain.
	for i := 0; i < 4; i++ {
		bound := rootTimes[rng.Intn(len(rootTimes))] + Time(rng.Int63n(1<<20))
		if bound < eng.Now() {
			continue
		}
		eng.RunUntil(bound)
		ref.runUntil(bound)
		if eng.Now() != ref.now {
			t.Fatalf("seed %d: clocks diverged after RunUntil(%v): wheel %v ref %v", seed, bound, eng.Now(), ref.now)
		}
	}
	eng.Run()
	ref.run()

	if len(gotW) != len(gotR) {
		t.Fatalf("seed %d: fired %d events on wheel, %d on reference", seed, len(gotW), len(gotR))
	}
	for i := range gotW {
		if gotW[i] != gotR[i] {
			t.Fatalf("seed %d: fired order diverges at %d: wheel %d ref %d", seed, i, gotW[i], gotR[i])
		}
	}
	if eng.live != 0 {
		t.Fatalf("seed %d: %d events still pending after Run", seed, eng.live)
	}
}

func TestDifferentialVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		diffTrace(t, seed)
	}
	for _, c := range edgeCases {
		diffScript(t, c)
	}
}

// scriptEvent is one event of a directed trace: its absolute time, and the
// events (by index) it schedules and cancels when it fires.
type scriptEvent struct {
	at     Time
	spawn  []int
	cancel []int
}

// edgeCase is a directed trace placed on an edge of advance's level scan.
// roots are scheduled at time zero, in order. inspect, if set, runs on the
// wheel engine when event 0 fires, after its spawns and cancels, and
// returns "" or how the wheel's state differs from what the case is built
// to reach; want documents the order the heap reference must agree with.
type edgeCase struct {
	name    string
	events  []scriptEvent
	roots   []int
	want    []int
	inspect func(*Engine) string
}

const (
	bucketNs = Time(1) << granShift                // one level-0 bucket
	stride1  = Time(1) << (granShift + bucketBits) // one level-1 bucket
	stride2  = stride1 << bucketBits               // one level-2 bucket
	horizon  = Time(1) << (granShift + bucketBits*numLevels)
)

// occupied reports whether the wheel holds anything at level l, slot.
func occupied(e *Engine, l, slot int) bool { return e.wheel.buckets[l][slot] != nil }

var edgeCases = []edgeCase{{
	// Event 0 fires in the last slot of a level-0 revolution and schedules
	// event 1 into slot 0 of the next: the level-0 hit wraps, so the scan
	// must go on to level 1, where event 2 — filed from time zero — starts
	// on the same level-1 boundary and is tied with event 1 to the
	// nanosecond. Schedule order decides: 2 before 1.
	name: "slot 255 to 0 across a level-1 boundary, tied with a level-1 event",
	events: []scriptEvent{
		{at: 255 * bucketNs, spawn: []int{1}},
		{at: stride1 + 7},
		{at: stride1 + 7},
		{at: stride1 + 3*bucketNs},
	},
	roots: []int{0, 2, 3},
	want:  []int{0, 2, 1, 3},
	inspect: func(e *Engine) string {
		if !occupied(e, 0, 0) || !occupied(e, 1, 1) {
			return "want event 1 at level 0 slot 0 and event 2 at level 1 slot 1"
		}
		return ""
	},
}, {
	// Three events at one instant that is a level-1 and a level-2 stride:
	// event 3 filed at level 2 from time zero, event 2 at level 1 from two
	// level-1 buckets before, event 1 at level 0 from 100 buckets before.
	// All three hits wrap or sit above, so the scan ends at level 2 and the
	// drain must take all three levels.
	name: "level-0, level-1 and level-2 events tied on a level-2 stride",
	events: []scriptEvent{
		{at: stride2 - 100*bucketNs, spawn: []int{1}},
		{at: stride2},
		{at: stride2},
		{at: stride2},
		{at: stride2 - 300*bucketNs, spawn: []int{2}},
		{at: stride2 + 1},
	},
	roots: []int{3, 4, 0, 5},
	want:  []int{4, 0, 3, 2, 1, 5},
	inspect: func(e *Engine) string {
		if !occupied(e, 0, 0) || !occupied(e, 1, 0) || !occupied(e, 2, 1) {
			return "want the tied events at level 0 slot 0, level 1 slot 0 and level 2 slot 1"
		}
		return ""
	},
}, {
	// The level-0 hit wraps into the level-1 bucket after next; level 1's
	// own hit does not wrap and starts later than it. The scan ends at
	// level 1 with the level-0 event as the minimum.
	name: "wrapped level-0 hit earlier than a non-wrapping level-1 hit",
	events: []scriptEvent{
		{at: 200 * bucketNs, spawn: []int{1}},
		{at: stride1 + 40*bucketNs},
		{at: 2 * stride1},
	},
	roots: []int{0, 2},
	want:  []int{0, 1, 2},
	inspect: func(e *Engine) string {
		if !occupied(e, 0, 40) || !occupied(e, 1, 2) || occupied(e, 1, 1) {
			return "want event 1 at level 0 slot 40 and event 2 alone at level 1 slot 2"
		}
		return ""
	},
}, {
	// Events 1 and 2 sit past the wheel's horizon when they are scheduled
	// and so go to the overflow list. Event 4, the last thing inside the
	// horizon, brings the wheel within a revolution of them and schedules
	// event 0 just before them; nothing has refilled yet when event 0
	// fires and schedules event 3 at level 0 four slots ahead — a hit that
	// does not wrap and ends the scan at level 0. overflowMin lies before
	// it, so the refill must still come first.
	name: "overflowMin inside the current level-0 revolution",
	events: []scriptEvent{
		{at: horizon + bucketNs, spawn: []int{3}},
		{at: horizon + 3*bucketNs},
		{at: horizon + 3*bucketNs + 1},
		{at: horizon + 5*bucketNs},
		{at: horizon - 10*bucketNs, spawn: []int{0}},
	},
	roots: []int{1, 2, 4},
	want:  []int{4, 0, 1, 2, 3},
	inspect: func(e *Engine) string {
		if len(e.wheel.overflow) == 0 || e.wheel.overflowMin > bucketOf(horizon+3*bucketNs) || !occupied(e, 0, 5) {
			return "want events 1 and 2 still in overflow and event 3 at level 0 slot 5"
		}
		return ""
	},
}, {
	// Event 1 is alone in the slot after event 0's and event 0 cancels it:
	// the eager unlink must clear the slot's bit or the scan would stop at
	// an empty bucket; the next event is a level-1 one.
	name: "the only event of the next slot cancelled",
	events: []scriptEvent{
		{at: 10 * bucketNs, cancel: []int{1}},
		{at: 11 * bucketNs},
		{at: 300 * bucketNs},
	},
	roots: []int{0, 1, 2},
	want:  []int{0, 2},
	inspect: func(e *Engine) string {
		if occupied(e, 0, 11) || e.wheel.occ[0][0] != 0 || !occupied(e, 1, 1) {
			return "want level 0 empty and event 2 at level 1 slot 1"
		}
		return ""
	},
}}

// diffScript runs one directed trace through the wheel engine and the heap
// reference and compares the fired sequences with each other and with the
// order the case documents.
func diffScript(t *testing.T, c edgeCase) {
	eng := New(1)
	ref := &refEngine{}
	var gotW, gotR []int
	wheelEvs := make([]Timer, len(c.events))
	refEvs := make([]*refEvent, len(c.events))

	var scheduleWheel, scheduleRef func(id int)
	scheduleWheel = func(id int) {
		wheelEvs[id] = eng.TimerAt(c.events[id].at, func(any, uint64) {
			gotW = append(gotW, id)
			for _, k := range c.events[id].cancel {
				eng.CancelTimer(wheelEvs[k])
			}
			for _, k := range c.events[id].spawn {
				scheduleWheel(k)
			}
			if id == 0 && c.inspect != nil {
				if msg := c.inspect(eng); msg != "" {
					t.Fatalf("%s: the trace is off the edge it was built for: %s", c.name, msg)
				}
			}
		}, nil, 0)
	}
	scheduleRef = func(id int) {
		refEvs[id] = ref.at(c.events[id].at, func() {
			gotR = append(gotR, id)
			for _, k := range c.events[id].cancel {
				ref.cancel(refEvs[k])
			}
			for _, k := range c.events[id].spawn {
				scheduleRef(k)
			}
		})
	}
	for _, id := range c.roots {
		scheduleWheel(id)
		scheduleRef(id)
	}
	eng.Run()
	ref.run()
	if fmt.Sprint(gotR) != fmt.Sprint(c.want) {
		t.Fatalf("%s: the heap reference fired %v, the case expects %v", c.name, gotR, c.want)
	}
	if fmt.Sprint(gotW) != fmt.Sprint(gotR) {
		t.Fatalf("%s: wheel fired %v, heap reference %v", c.name, gotW, gotR)
	}
	if eng.Now() != ref.now || eng.live != 0 {
		t.Fatalf("%s: wheel ends at %v with %d pending, reference at %v", c.name, eng.Now(), eng.live, ref.now)
	}
}

// TestDifferentialFIFOBurst hammers the exact-tie path: hundreds of
// events at one timestamp, spread across both scheduling front ends and
// interleaved with cancels, must fire in schedule order on both engines.
func TestDifferentialFIFOBurst(t *testing.T) {
	eng := New(7)
	ref := &refEngine{}
	var gotW, gotR []int

	var wheelEvs []Timer
	var refEvs []*refEvent
	const at = Time(5 * Microsecond)
	fire := func(_ any, u uint64) { gotW = append(gotW, int(u)) }
	for i := 0; i < 300; i++ {
		i := i
		if i%3 == 1 {
			eng.CallAt(at, fire, nil, uint64(i))
			wheelEvs = append(wheelEvs, Timer{}) // fire-and-forget: no handle
		} else {
			wheelEvs = append(wheelEvs, eng.TimerAt(at, fire, nil, uint64(i)))
		}
		refEvs = append(refEvs, ref.at(at, func() { gotR = append(gotR, i) }))
	}
	for i := 0; i < 300; i += 7 {
		if wheelEvs[i].Active() {
			eng.CancelTimer(wheelEvs[i])
			ref.cancel(refEvs[i])
		}
	}
	eng.Run()
	ref.run()
	if len(gotW) != len(gotR) {
		t.Fatalf("fired %d on wheel, %d on ref", len(gotW), len(gotR))
	}
	for i := range gotW {
		if gotW[i] != gotR[i] {
			t.Fatalf("FIFO burst order diverges at %d: wheel %d ref %d", i, gotW[i], gotR[i])
		}
	}
}
