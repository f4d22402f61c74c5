package sim

import (
	"sort"
	"testing"
)

// TestTimerHandleSurvivesPooling checks that a Timer handle held across a
// fire and heavy pool reuse can never touch the event's next occupant:
// the generation counter must invalidate stale handles.
func TestTimerHandleSurvivesPooling(t *testing.T) {
	e := New(1)
	nop := func(any, uint64) {}

	fired := false
	tm := e.TimerAfter(Microsecond, func(any, uint64) { fired = true }, nil, 0)
	if !tm.Active() {
		t.Fatal("fresh timer not active")
	}
	e.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
	if tm.Active() {
		t.Fatal("timer still active after firing")
	}
	if e.CancelTimer(tm) {
		t.Fatal("CancelTimer succeeded on a fired timer")
	}

	// Recycle the pool hard so tm.ev's slot is reused many times.
	for i := 0; i < 256; i++ {
		e.CallAfter(Time(i), nop, nil, 0)
	}
	// The stale handle must not cancel whatever now occupies the event.
	if e.CancelTimer(tm) {
		t.Fatal("stale timer handle canceled a recycled event")
	}
	before := e.live
	e.CancelTimer(tm)
	if e.live != before {
		t.Fatal("stale CancelTimer changed pending count")
	}
	e.Run()
	if e.live != 0 {
		t.Fatalf("%d events lost or stuck after pool churn", e.live)
	}
}

// TestCancelChurnCompaction regression-tests the lazy-cancel compaction:
// a workload that schedules and cancels without ever letting the clock
// advance must not accumulate dead entries (this was quadratic before
// compaction existed), and the survivors must still fire in FIFO order.
// Every schedule is counted once, as fired, canceled or pending, before
// and after the drain.
func TestCancelChurnCompaction(t *testing.T) {
	e := New(5)
	var got []int
	var tms [64]Timer
	const churn = 100_000
	for i := 0; i < churn; i++ {
		slot := i % len(tms)
		if tms[slot].Active() {
			e.CancelTimer(tms[slot])
		}
		tms[slot] = e.TimerAfter(Time(1+i%512), func(_ any, u uint64) {
			got = append(got, int(u))
		}, nil, uint64(i))
	}
	if n := len(e.ready); n > 1024 {
		t.Fatalf("ready queue grew to %d entries under cancel churn, compaction failed", n)
	}
	counts := func(fired, canceled, pending uint64) {
		t.Helper()
		if e.Scheduled() != churn || e.Fired() != fired || e.Canceled() != canceled || e.Pending() != pending {
			t.Fatalf("scheduled %d fired %d canceled %d pending %d, want %d = %d + %d + %d",
				e.Scheduled(), e.Fired(), e.Canceled(), e.Pending(), churn, fired, canceled, pending)
		}
	}
	const survivors = uint64(len(tms))
	counts(0, churn-survivors, survivors)
	e.Run()
	counts(survivors, churn-survivors, 0)
	// The survivors are the final len(tms) schedules; they must fire in
	// (at, schedule order) — i.e. time-sorted, ties by id.
	want := make([]int, 0, len(tms))
	for i := churn - len(tms); i < churn; i++ {
		want = append(want, i)
	}
	sort.SliceStable(want, func(a, b int) bool {
		return 1+want[a]%512 < 1+want[b]%512
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want the %d surviving timers", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivor order diverges at %d: got %d want %d", i, got[i], want[i])
		}
	}
	if e.live != 0 {
		t.Fatalf("%d events stuck after churn drain", e.live)
	}
}

// TestZeroAllocSteadyState gates the tentpole's allocation claim in the
// regular test suite (so `make check` enforces it): closure-free
// scheduling through a warmed pool must not allocate at all, mirroring
// the compiled-policy gate in internal/ebpf/jit_test.go.
func TestZeroAllocSteadyState(t *testing.T) {
	e := New(3)
	nop := func(any, uint64) {}

	// Warm the free list and the ready slice.
	for i := 0; i < 256; i++ {
		e.CallAfter(Time(i%64), nop, nil, 0)
	}
	e.Run()

	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		e.CallAfter(Time(i%64), nop, nil, uint64(i))
		i++
		if e.live > 128 {
			e.Run()
		}
	}); avg != 0 {
		t.Fatalf("pooled schedule+fire allocates %v allocs/op, want 0", avg)
	}
}

// TestZeroAllocTicker gates the re-arm path: a running ticker must not
// allocate per period.
func TestZeroAllocTicker(t *testing.T) {
	e := New(4)
	n := 0
	tk := e.NewTicker(Microsecond, func() { n++ })
	e.RunUntil(16 * Microsecond) // warm
	if avg := testing.AllocsPerRun(100, func() {
		e.RunUntil(e.Now() + Microsecond)
	}); avg != 0 {
		t.Fatalf("ticker re-arm allocates %v allocs/op, want 0", avg)
	}
	tk.Stop()
	if n == 0 {
		t.Fatal("ticker never ticked")
	}
}

// Engine microbenchmarks for the timer-wheel core. `make bench-engine`
// runs exactly these.

// BenchmarkEngineSteadyState is the closure-free analogue of
// BenchmarkScheduleAndFire: schedule near-future work, drain in batches.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := New(42)
	nop := func(any, uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CallAfter(Time(i%64), nop, nil, uint64(i))
		if e.live > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineCancelHeavy schedules pooled timers and cancels most of
// them before they fire — the RFS/slice-timer shape in the kernel model.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := New(42)
	nop := func(any, uint64) {}
	var tms [64]Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % len(tms)
		if tms[slot].Active() {
			e.CancelTimer(tms[slot])
		}
		tms[slot] = e.TimerAfter(Time(1+i%512), nop, nil, uint64(i))
		if e.live > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineTickerChurn measures the periodic re-arm path (CFS tick,
// agent polling): one ticker advanced through b.N periods.
func BenchmarkEngineTickerChurn(b *testing.B) {
	e := New(42)
	n := 0
	tk := e.NewTicker(Microsecond, func() { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(b.N) * Microsecond)
	b.StopTimer()
	tk.Stop()
	if n < b.N {
		b.Fatalf("ticker fired %d times, want >= %d", n, b.N)
	}
}

// BenchmarkEngineSparse is the regime a loaded host runs in and the dense
// steady-state shape above does not reach: about one event per level-0
// bucket, so nearly every fire pays a wheel advance, with a millisecond
// ticker keeping a higher level occupied.
func BenchmarkEngineSparse(b *testing.B) {
	e := New(42)
	tk := e.NewTicker(Millisecond, func() {})
	left := b.N
	var cb Callback
	cb = func(any, uint64) {
		if left--; left > 0 {
			e.CallAfter(1200+Time(left%8)*100, cb, nil, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.CallAfter(Microsecond, cb, nil, 0)
	for left > 0 {
		e.RunUntil(e.Now() + Millisecond)
	}
	b.StopTimer()
	tk.Stop()
}
