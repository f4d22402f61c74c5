package sim

import "math/bits"

// The engine's pending-event store is a Varghese–Lauck hierarchical timer
// wheel: a near wheel of fixed-width buckets plus higher levels whose
// buckets each cover one full revolution of the level below and cascade
// into it on rollover. Seven levels cover every Time there is. Scheduling
// is O(1); finding the next non-empty bucket is a bitmap scan. Within a
// bucket events are kept unordered and sorted by (at, seq) only when the
// bucket is spliced, which preserves the engine's exact global FIFO
// tie-break while keeping the hot path free of comparisons. See DESIGN.md
// "Event engine internals".
const (
	// bucketBits is log2 of the per-level bucket count.
	bucketBits  = 8
	bucketCount = 1 << bucketBits
	bucketMask  = bucketCount - 1

	// granShift is log2 of the near-wheel bucket width in virtual
	// nanoseconds: 2^10 ns ≈ 1 µs, matched to the simulator's per-packet
	// cost constants (0.3–1.6 µs) so hot events land at level 0.
	granShift = 10

	// numLevels gives a total horizon of 2^(10+8·7) = 2^66 ns, past
	// math.MaxInt64: a Time's level-0 bucket index has 53 bits, so at the
	// top level it is a slot below 32, which every base reaches without
	// wrapping.
	numLevels = 7

	occWords = bucketCount / 64
)

// wheel holds the bucketed pending events. Chains are doubly linked and
// intrusive (Event.prev/next) so Cancel can unlink in O(1).
type wheel struct {
	// base is the absolute level-0 bucket index the wheel has advanced
	// to: every bucket with index <= base has already been spliced, so
	// events due there go straight to the engine's ready queue.
	base    int64
	buckets [numLevels][bucketCount]*Event
	occ     [numLevels][occWords]uint64
}

// bucketOf maps a timestamp to its absolute level-0 bucket index.
func bucketOf(t Time) int64 { return int64(uint64(t) >> granShift) }

// place routes a pending event to the ready queue (when its bucket has
// already been spliced) or into the wheel. Used by both fresh schedules
// and cascade redistribution.
func (e *Engine) place(ev *Event) {
	b := bucketOf(ev.at)
	if b <= e.wheel.base {
		e.readyInsert(ev)
		return
	}
	e.wheelInsert(ev, b)
}

// wheelInsert files ev (bucket index b > base) at the lowest level whose
// current revolution covers it. Level l bucket width is 2^(granShift +
// bucketBits·l); an event within 2^(bucketBits·(l+1)) level-0 buckets of
// base fits at level l or below, and the top level covers every Time.
func (e *Engine) wheelInsert(ev *Event, b int64) {
	w := &e.wheel
	for l := 0; l < numLevels; l++ {
		shift := uint(bucketBits * l)
		if d := (b >> shift) - (w.base >> shift); d < bucketCount {
			slot := int((b >> shift) & bucketMask)
			ev.level, ev.slot, ev.loc = int8(l), int16(slot), locBucket
			head := w.buckets[l][slot]
			ev.next = head
			if head != nil {
				head.prev = ev
			}
			w.buckets[l][slot] = ev
			w.occ[l][slot>>6] |= 1 << uint(slot&63)
			return
		}
	}
	panic("sim: event beyond the wheel's top level")
}

// wheelUnlink removes a queued event from its bucket chain (eager path
// for Cancel, so canceled events never linger in buckets).
func (e *Engine) wheelUnlink(ev *Event) {
	w := &e.wheel
	l, slot := int(ev.level), int(ev.slot)
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		w.buckets[l][slot] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if w.buckets[l][slot] == nil {
		w.occ[l][slot>>6] &^= 1 << uint(slot&63)
	}
	ev.prev, ev.next = nil, nil
	ev.loc = locNone
}

// nextOcc finds the circularly-next occupied slot strictly after pos at
// level l, i.e. at distance 1..bucketCount-1. Distance 0 (a full
// revolution) cannot occur: wheelInsert never files an event more than
// bucketCount-1 level-l units ahead of base at level l.
func (w *wheel) nextOcc(l, pos int) (slot int, ok bool) {
	occ := &w.occ[l]
	for step := 0; step <= occWords; step++ {
		wi := ((pos >> 6) + step) & (occWords - 1)
		word := occ[wi]
		if step == 0 {
			lo := uint(pos&63) + 1
			if lo >= 64 {
				word = 0
			} else {
				word &^= uint64(1)<<lo - 1
			}
		} else if step == occWords {
			// Wrapped back to the starting word: only slots strictly
			// below pos remain uncovered.
			word &= uint64(1)<<uint(pos&63) - 1
		}
		if word != 0 {
			return wi<<6 | bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// advance jumps the wheel to the next occupied bucket position and drains
// it. It performs one step — splice/cascade the buckets at the earliest
// occupied position — and reports whether it made progress (false means no
// pending events remain anywhere in the wheel). Callers loop: after a
// cascade the ready queue may or may not have gained events, so they
// re-check and call advance again.
//
// Invariant maintained here and relied on by peek(): after advance
// returns, no occupied bucket (at any level) has an absolute position
// <= base, so every event still in the wheel is strictly later than every
// event in the ready queue.
func (e *Engine) advance() bool {
	w := &e.wheel
	// Find the earliest occupied absolute position, lowest level first. A
	// level-l slot's position is the start of the time range it covers.
	// The scan ends at the first level whose next occupied slot does not
	// wrap, i.e. lies in the level-(l+1) bucket base is in: every occupied
	// slot of a higher level starts at or after that bucket's end (the
	// invariant below), so none can be earlier. top is the last level
	// scanned.
	bestAbs := int64(-1)
	top := numLevels - 1
	for l := 0; l < numLevels; l++ {
		shift := uint(bucketBits * l)
		pos := w.base >> shift
		cur := int(pos & bucketMask)
		slot, ok := w.nextOcc(l, cur)
		if !ok {
			continue
		}
		abs := (pos + int64((slot-cur)&bucketMask)) << shift
		if bestAbs < 0 || abs < bestAbs {
			bestAbs = abs
		}
		if slot > cur {
			top = l
			break
		}
	}
	if bestAbs < 0 {
		return false
	}

	// Jump to bestAbs and drain EVERY scanned level's bucket starting there
	// in the same step: when bestAbs is aligned to a higher level's stride,
	// that level's bucket covers [bestAbs, ...) and may hold events tied
	// with the level-0 slot — all of them must reach the ready queue
	// before any fires, or same-bucket events would fire out of order.
	// Level 0 splices first (a sorted append: leftovers in ready are
	// strictly earlier); higher-level events then merge via place() ->
	// readyInsert, which restores (at, seq) order by binary insertion.
	// Cascaded events never land back in a drained bucket: b == bestAbs
	// goes to ready, and b > bestAbs maps to a slot at distance >= 1.
	// Levels above top have nothing to drain: bestAbs lies strictly inside
	// the level-(top+1) bucket base is in, so it is aligned to no stride
	// above top's.
	w.base = bestAbs
	if slot := int(bestAbs & bucketMask); w.buckets[0][slot] != nil {
		chain := w.buckets[0][slot]
		w.buckets[0][slot] = nil
		w.occ[0][slot>>6] &^= 1 << uint(slot&63)
		e.spliceChain(chain)
	}
	for l := 1; l <= top; l++ {
		shift := uint(bucketBits * l)
		slot := int((bestAbs >> shift) & bucketMask)
		chain := w.buckets[l][slot]
		if chain == nil {
			continue
		}
		// Only a bucket starting exactly at bestAbs can be occupied at
		// this slot: one starting earlier would either have been the
		// scan minimum (abs < bestAbs) or violate the base invariant.
		if bestAbs&(int64(1)<<shift-1) != 0 {
			panic("sim: wheel drained a misaligned bucket")
		}
		w.buckets[l][slot] = nil
		w.occ[l][slot>>6] &^= 1 << uint(slot&63)
		for ev := chain; ev != nil; {
			next := ev.next
			ev.prev, ev.next = nil, nil
			ev.loc = locNone
			e.place(ev)
			ev = next
		}
	}
	return true
}
