package sim

import (
	"reflect"
	"testing"
)

// TestSamplerBoundaries: the hook fires once per period boundary, catches
// up across event gaps, and observes state as of the boundary (events at
// the boundary instant run after the sample).
func TestSamplerBoundaries(t *testing.T) {
	e := New(1)
	var counter int
	type sample struct {
		at Time
		v  int
	}
	var got []sample
	e.SetSampler(10, func(at Time) { got = append(got, sample{at, counter}) })

	e.CallAt(3, func(any, uint64) { counter = 1 }, nil, 0)
	e.CallAt(10, func(any, uint64) { counter = 2 }, nil, 0) // at the boundary: sampled value is pre-event
	e.CallAt(25, func(any, uint64) { counter = 3 }, nil, 0) // crosses boundary 20
	e.CallAt(77, func(any, uint64) { counter = 4 }, nil, 0) // gap: boundaries 30..70 catch up first
	e.Run()

	want := []sample{
		{10, 1}, // event at t=10 had not run yet
		{20, 2},
		{30, 3}, {40, 3}, {50, 3}, {60, 3}, {70, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
}

// TestSamplerRunUntil: the final clock advance in RunUntil also catches
// the sampler up, so a quiescent tail still produces boundary samples.
func TestSamplerRunUntil(t *testing.T) {
	e := New(1)
	var got []Time
	e.SetSampler(10, func(at Time) { got = append(got, at) })
	e.CallAt(5, func(any, uint64) {}, nil, 0)
	e.RunUntil(35)
	want := []Time{10, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples at %v, want %v", got, want)
	}
	if e.Now() != 35 {
		t.Fatalf("Now() = %v, want 35", e.Now())
	}
}

// TestSamplerPreservesOrder: installing the hook must not change event
// execution order or PRNG draws — the determinism contract behind the
// figure bit-identity gates.
func TestSamplerPreservesOrder(t *testing.T) {
	run := func(sampled bool) (order []int, draws []uint64) {
		e := New(42)
		if sampled {
			e.SetSampler(7, func(Time) {})
		}
		// A burst of same-instant events plus staggered ones, each
		// drawing from the PRNG, plus nested scheduling.
		for i := 0; i < 20; i++ {
			i := i
			at := Time(5 * (i % 4))
			e.CallAt(at, func(any, uint64) {
				order = append(order, i)
				draws = append(draws, e.Rand().Uint64())
				e.CallAfter(3, func(any, uint64) {
					order = append(order, 100+i)
					draws = append(draws, e.Rand().Uint64())
				}, nil, 0)
			}, nil, 0)
		}
		e.Run()
		return
	}
	o1, d1 := run(false)
	o2, d2 := run(true)
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("event order changed with sampler installed:\noff=%v\non =%v", o1, o2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("PRNG draws changed with sampler installed")
	}
}

// TestSamplerUninstall: nil fn or non-positive period removes the hook.
func TestSamplerUninstall(t *testing.T) {
	e := New(1)
	fired := 0
	e.SetSampler(10, func(Time) { fired++ })
	e.SetSampler(0, func(Time) { fired++ })
	e.CallAt(50, func(any, uint64) {}, nil, 0)
	e.Run()
	if fired != 0 {
		t.Fatalf("uninstalled sampler fired %d times", fired)
	}
	e.SetSampler(10, func(Time) { fired++ })
	e.SetSampler(10, nil)
	e.CallAt(100, func(any, uint64) {}, nil, 0)
	e.Run()
	if fired != 0 {
		t.Fatalf("nil-fn sampler fired %d times", fired)
	}
}

// TestZeroAllocSampler: steady-state firing with a sampler installed
// (appending into preallocated storage) allocates nothing, and the
// disabled path is untouched (covered by TestZeroAllocSteadyState).
func TestZeroAllocSampler(t *testing.T) {
	e := New(1)
	buf := make([]Time, 0, 1<<16)
	e.SetSampler(10, func(at Time) { buf = append(buf, at) })
	var cb Callback
	cb = func(arg any, u uint64) {
		if u < 200 {
			e.CallAfter(3, cb, nil, u+1)
		}
	}
	e.CallAfter(3, cb, nil, 0)
	// Warm the pool and ready queue.
	e.RunUntil(e.Now() + 60)
	allocs := testing.AllocsPerRun(50, func() {
		e.CallAfter(3, cb, nil, 0)
		e.RunUntil(e.Now() + 30)
	})
	if allocs != 0 {
		t.Fatalf("steady state with sampler allocates %.1f/run, want 0", allocs)
	}
}
