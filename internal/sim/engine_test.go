package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.CallAt(30, func(any, uint64) { got = append(got, 3) }, nil, 0)
	e.CallAt(10, func(any, uint64) { got = append(got, 1) }, nil, 0)
	e.CallAt(20, func(any, uint64) { got = append(got, 2) }, nil, 0)
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.CallAt(5, func(any, uint64) { got = append(got, i) }, nil, 0)
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	e := New(1)
	var times []Time
	e.CallAt(100, func(any, uint64) {
		e.CallAfter(50, func(any, uint64) { times = append(times, e.Now()) }, nil, 0)
	}, nil, 0)
	e.Run()
	if len(times) != 1 || times[0] != 150 {
		t.Fatalf("After misfired: %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.TimerAt(10, func(any, uint64) { fired = true }, nil, 0)
	if !e.CancelTimer(tm) {
		t.Fatal("pending timer did not cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if tm.Active() {
		t.Fatal("canceled timer still reports active")
	}
	// Double-cancel and cancel-after-run must be no-ops.
	if e.CancelTimer(tm) {
		t.Fatal("double cancel reported success")
	}
	tm2 := e.TimerAt(20, func(any, uint64) {}, nil, 0)
	e.Run()
	if e.CancelTimer(tm2) {
		t.Fatal("cancel after run reported success")
	}
}

func TestCancelFromInsideEvent(t *testing.T) {
	e := New(1)
	fired := false
	victim := e.TimerAt(10, func(any, uint64) { fired = true }, nil, 0)
	e.CallAt(5, func(any, uint64) { e.CancelTimer(victim) }, nil, 0)
	e.Run()
	if fired {
		t.Fatal("event canceled at t=5 still fired at t=10")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.CallAt(at, func(any, uint64) { got = append(got, at) }, nil, 0)
	}
	e.RunUntil(25)
	if len(got) != 2 || e.Now() != 25 {
		t.Fatalf("RunUntil(25): got %v now %v", got, e.Now())
	}
	e.RunUntil(40)
	if len(got) != 4 || e.Now() != 40 {
		t.Fatalf("RunUntil(40): got %v now %v", got, e.Now())
	}
}

func TestRunUntilRunsEventsScheduledAtBoundary(t *testing.T) {
	e := New(1)
	n := 0
	e.CallAt(10, func(any, uint64) {
		n++
		e.CallAt(10, func(any, uint64) { n++ }, nil, 0)
	}, nil, 0)
	e.RunUntil(10)
	if n != 2 {
		t.Fatalf("boundary-time chained event did not run: n=%d", n)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.CallAt(100, func(any, uint64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.CallAt(50, func(any, uint64) {}, nil, 0)
	}, nil, 0)
	e.Run()
}

func TestTicker(t *testing.T) {
	e := New(1)
	var ticks []Time
	var tk *Ticker
	tk = e.NewTicker(100, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if want := Time(100 * (i + 1)); at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New(42)
		var out []uint64
		for i := 0; i < 50; i++ {
			d := Time(e.Rand().Int64N(1000)) + 1
			e.CallAfter(d, func(any, uint64) { out = append(out, e.Rand().Uint64()) }, nil, 0)
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic rng stream at %d", i)
		}
	}
}

// Property: for any batch of events with arbitrary (non-negative) offsets,
// the engine fires them in nondecreasing time order and finishes with the
// clock at the max timestamp.
func TestPropertyMonotoneClock(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := New(7)
		var fireTimes []Time
		var max Time
		for _, off := range offsets {
			at := Time(off)
			if at > max {
				max = at
			}
			e.CallAt(at, func(any, uint64) { fireTimes = append(fireTimes, e.Now()) }, nil, 0)
		}
		e.Run()
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMicrosAndString(t *testing.T) {
	if Microsecond.Micros() != 1 {
		t.Fatal("Micros conversion wrong")
	}
	if s := (1500 * Nanosecond).String(); s != "1.500us" {
		t.Fatalf("String = %q", s)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := New(1)
	fn := func(any, uint64) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.CallAfter(Time(i%64), fn, nil, 0)
		if e.live > 1024 {
			e.Run()
		}
	}
	e.Run()
}
