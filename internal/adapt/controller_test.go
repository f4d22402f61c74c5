package adapt

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// fakeAct records swaps.
type fakeAct struct {
	calls []string
	fail  error // returned by every swap
}

func (f *fakeAct) SwapPolicy(app uint32, hk, pol string, _ map[string]int64) error {
	f.calls = append(f.calls, fmt.Sprintf("swap %d %s %s", app, hk, pol))
	return f.fail
}

// burnRule is a one-rule table: swap to shed when p99 burns, swap back
// on clear.
func burnRule() Config {
	return Config{
		Period: 100,
		Rules: []Rule{{
			Name:    "ls_burn",
			Detect:  obs.SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.1, Short: 300, Long: 1000},
			OnFire:  ActionSpec{App: 1, Hook: "socket-select", Policy: "shed"},
			OnClear: &ActionSpec{App: 1, Hook: "socket-select", Policy: "round_robin"},
			Sustain: 2, ClearAfter: 3, Cooldown: 500,
		}},
	}
}

// scripted returns a sampler whose ticks the test schedules itself.
func scripted() *obs.Sampler { return obs.NewSampler(obs.Config{Period: 100}) }

// tickEvery schedules one sampler tick every 100ns from 50 until until,
// landing between the controller's ticks.
func tickEvery(eng *sim.Engine, sa *obs.Sampler, until sim.Time) {
	for t := sim.Time(50); t < until; t += 100 {
		at := t
		eng.CallAt(at, func(any, uint64) { sa.Sample(at) }, nil, 0)
	}
}

// phased registers a gauge that reads hi inside [from, to) of eng's clock
// and lo elsewhere.
func phased(eng *sim.Engine, sa *obs.Sampler, name string, from, to sim.Time, hi, lo float64) {
	sa.Gauge(name, func() float64 {
		if now := eng.Now(); now >= from && now < to {
			return hi
		}
		return lo
	})
}

// driveP99 records one p99 sample every 100ns whose value is bad inside
// [badFrom, badTo).
func driveP99(eng *sim.Engine, sa *obs.Sampler, badFrom, badTo, until sim.Time) {
	phased(eng, sa, "p99", badFrom, badTo, 500, 50)
	tickEvery(eng, sa, until)
}

func TestControllerFireAndClear(t *testing.T) {
	eng := sim.New(1)
	sa := scripted()
	act := &fakeAct{}
	c, err := New(eng, sa.Store(), act, burnRule())
	if err != nil {
		t.Fatal(err)
	}
	driveP99(eng, sa, 2000, 4000, 10_000)
	eng.RunUntil(10_000)

	if len(act.calls) != 2 {
		t.Fatalf("calls = %v, want one fire and one clear", act.calls)
	}
	if act.calls[0] != "swap 1 socket-select shed" || act.calls[1] != "swap 1 socket-select round_robin" {
		t.Fatalf("calls = %v", act.calls)
	}
	h := c.History()
	if len(h) != 2 || h[0].Event != "fire" || h[1].Event != "clear" {
		t.Fatalf("history = %+v", h)
	}
	// The fire must land after the bad phase begins and the burn windows
	// plus sustain fill; the clear after recovery plus the long window
	// draining below the burn threshold.
	if h[0].AtNS < 2000 || h[0].AtNS > 4000 {
		t.Fatalf("fire at %dns, want during the bad phase", h[0].AtNS)
	}
	if h[1].AtNS < 4000 {
		t.Fatalf("clear at %dns, want after recovery", h[1].AtNS)
	}
	st1 := c.Status()
	if st1.Decisions != 2 || st1.Rules != 1 || !st1.Enabled || st1.Ticks == 0 {
		t.Fatalf("status = %+v", st1)
	}
	rs := c.Rules()
	if rs[0].Engaged {
		t.Fatalf("rule state after clear = %+v, want disengaged", rs[0])
	}
}

// TestControllerDeterminism: identical seeds and inputs yield
// byte-identical decision histories — decisions are sim-clock events.
func TestControllerDeterminism(t *testing.T) {
	run := func() []Decision {
		eng := sim.New(7)
		sa := scripted()
		c, err := New(eng, sa.Store(), &fakeAct{}, burnRule())
		if err != nil {
			t.Fatal(err)
		}
		driveP99(eng, sa, 2000, 4000, 10_000)
		eng.RunUntil(10_000)
		return c.History()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("histories differ:\n%v\n%v", a, b)
	}
}

// TestControllerNoDataFreezes: an objective with no evidence neither fires
// nor clears; the controller does nothing all run.
func TestControllerNoDataFreezes(t *testing.T) {
	eng := sim.New(1)
	act := &fakeAct{}
	c, err := New(eng, scripted().Store(), act, burnRule()) // series "p99" never created
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10_000)
	if len(act.calls) != 0 || c.Status().Decisions != 0 {
		t.Fatalf("no-data controller acted: %v", act.calls)
	}
	if c.Status().Ticks == 0 {
		t.Fatalf("ticker did not run")
	}
}

// TestControllerActionError: a failing actuation is recorded with its
// error and the rule retries after the cooldown.
func TestControllerActionError(t *testing.T) {
	eng := sim.New(1)
	sa := scripted()
	act := &fakeAct{fail: fmt.Errorf("quarantined")}
	c, err := New(eng, sa.Store(), act, burnRule())
	if err != nil {
		t.Fatal(err)
	}
	driveP99(eng, sa, 1000, 5000, 5000)
	eng.RunUntil(5000)
	h := c.History()
	if len(h) == 0 || h[0].Err == "" {
		t.Fatalf("history = %+v, want recorded error", h)
	}
}

// TestConfigValidation: a table the controller could not run as written
// is refused at construction — including an objective that can never
// burn (a zero budget) or never be evaluated.
func TestConfigValidation(t *testing.T) {
	eng := sim.New(1)
	st := scripted().Store()
	swap := ActionSpec{App: 1, Hook: "h", Policy: "p"}
	slo := obs.SLO{Name: "s", Series: "p99", Target: 100, Budget: 0.1, Short: 300, Long: 1000}
	with := func(f func(*Rule)) Config {
		r := Rule{Name: "x", Detect: slo, OnFire: swap}
		f(&r)
		return Config{Rules: []Rule{r}}
	}
	for name, cfg := range map[string]Config{
		"no name":        with(func(r *Rule) { r.Name = "" }),
		"no series":      with(func(r *Rule) { r.Detect.Series = "" }),
		"zero budget":    with(func(r *Rule) { r.Detect.Budget = 0 }),
		"budget over 1":  with(func(r *Rule) { r.Detect.Budget = 1.5 }),
		"NaN target":     with(func(r *Rule) { r.Detect.Target = math.NaN() }),
		"no windows":     with(func(r *Rule) { r.Detect.Short, r.Detect.Long = 0, 0 }),
		"short > long":   with(func(r *Rule) { r.Detect.Short = 2000 }),
		"swap no policy": with(func(r *Rule) { r.OnFire.Policy = "" }),
		"clear no hook":  with(func(r *Rule) { r.OnClear = &ActionSpec{App: 1, Policy: "p"} }),
	} {
		if _, err := New(eng, st, &fakeAct{}, cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
	if _, err := New(eng, st, &fakeAct{}, with(func(*Rule) {})); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	if _, err := New(eng, nil, &fakeAct{}, Config{}); err == nil {
		t.Fatalf("nil store accepted")
	}
}

// TestControllerClearDetector: a rule whose action suppresses its own
// trigger (shedding fixes the p99 that fired the shed) must not clear
// while the declared recovery signal still fires — the quiet streak
// follows ClearDetect, not the fire objective's silence.
func TestControllerClearDetector(t *testing.T) {
	cfg := burnRule()
	cfg.Rules[0].ClearDetect = &obs.SLO{Name: "overload", Series: "load", Target: 100, Budget: 0.5, Short: 300, Long: 1000}
	eng := sim.New(1)
	sa := scripted()
	act := &fakeAct{}
	c, err := New(eng, sa.Store(), act, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// p99 goes bad at 2000 and recovers at 4000 (the shed "worked"), but
	// the offered-load signal stays hot until 7000.
	phased(eng, sa, "load", 0, 7000, 500, 50)
	driveP99(eng, sa, 2000, 4000, 10_000)
	eng.RunUntil(10_000)

	if len(act.calls) != 2 {
		t.Fatalf("calls = %v, want one fire and one clear", act.calls)
	}
	h := c.History()
	if h[0].Event != "fire" || h[1].Event != "clear" {
		t.Fatalf("history = %+v", h)
	}
	// Without the clear detector, burnRule clears shortly after the p99
	// recovers at 4000; with it, the clear must wait for the load signal.
	if h[1].AtNS < 7000 {
		t.Fatalf("clear at %dns, want held until the recovery signal quiets at 7000", h[1].AtNS)
	}
	if !strings.Contains(h[1].Detail, "short=") {
		t.Fatalf("clear detail = %q, want clear-objective evidence", h[1].Detail)
	}
}

// TestControllerClearDetectorValidation: a broken clear objective is a
// construction-time error, not a silent no-op.
func TestControllerClearDetectorValidation(t *testing.T) {
	cfg := burnRule()
	cfg.Rules[0].ClearDetect = &obs.SLO{Name: "overload", Target: 100, Budget: 0.5, Short: 300, Long: 1000}
	if _, err := New(sim.New(1), scripted().Store(), &fakeAct{}, cfg); err == nil {
		t.Fatal("controller accepted a clear objective with no series")
	}
}

// TestVerdictDetail pins the evidence string a firing verdict leaves in
// its decision: rendered from the burn rates only when the rule acts.
func TestVerdictDetail(t *testing.T) {
	eng := sim.New(1)
	sa := scripted()
	sa.Gauge("p99", func() float64 { return 500 })
	sa.Sample(100)
	c, err := New(eng, sa.Store(), &fakeAct{}, Config{Period: 100, Rules: []Rule{{
		Name:   "s",
		Detect: obs.SLO{Name: "s", Series: "p99", Target: 100, Budget: 0.5, Short: 50, Long: 100},
		OnFire: ActionSpec{App: 1, Hook: "h", Policy: "p"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100)
	h := c.History()
	if len(h) != 1 || h[0].Detail != "short=2.00x long=2.00x n=1" || h[0].Action != "swap app 1 h -> p" {
		t.Fatalf("history = %+v", h)
	}
}

// TestZeroAllocTick gates the controller's steady state: a decision tick
// on which no rule acts — objectives healthy, firing below their debounce,
// or without data — stays off the allocator. Only a recorded decision pays
// for formatting its evidence.
func TestZeroAllocTick(t *testing.T) {
	eng := sim.New(1)
	sa := scripted()
	act := &fakeAct{}
	swap := ActionSpec{App: 1, Hook: "socket-select", Policy: "shed"}
	slo := obs.SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.1, Short: 300, Long: 1000}
	hot := slo
	hot.Target = 10
	gone := slo
	gone.Series = "nope"
	// A ratio objective, read in place from two live rings, firing on
	// every tick like hot.
	drops := obs.SLO{Name: "drops", Series: "drops", Denom: "rps", Target: 1e-4, Budget: 0.1, Short: 300, Long: 1000}
	cfg := Config{Period: 100, Rules: []Rule{
		{Name: "burn", Detect: slo, OnFire: swap, ClearDetect: &slo},
		// Fires on every tick, but never for the million ticks its
		// debounce asks for.
		{Name: "hot", Detect: hot, OnFire: swap, Sustain: 1 << 20},
		{Name: "gone", Detect: gone, OnFire: swap},
		{Name: "drops", Detect: drops, OnFire: swap, Sustain: 1 << 20},
	}}
	c, err := New(eng, sa.Store(), act, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa.Gauge("p99", func() float64 { return 50 })
	sa.Gauge("drops", func() float64 { return 1 })
	now := sim.Time(0)
	step := func() {
		now += 100
		sa.Sample(now - 50)
		eng.RunUntil(now)
	}
	for i := 0; i < 20; i++ {
		if i == 5 {
			sa.Gauge("rps", func() float64 { return 1000 })
		}
		step() // fill the burn windows
	}
	ticks := c.Status().Ticks
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("idle controller tick allocates %.1f/run, want 0", allocs)
	}
	if got := c.Status(); got.Ticks < ticks+200 || got.Decisions != 0 || len(act.calls) != 0 {
		t.Fatalf("status = %+v calls = %v, want >=200 more ticks and no decision", got, act.calls)
	}
	if rs := c.Rules(); !rs[1].Firing || !rs[3].Firing {
		t.Fatalf("hot and drops rules = %+v, %+v, want firing (under their debounce)", rs[1], rs[3])
	}
}

// TestControllerReadsItsWholeWindow: New declares the rules' windows to
// the store, so a long window that spans more ticks than a store holds
// by default reads every one of them: at a 1 ms period a 1 000 ms window
// holds 1 001 samples once warm, not obs.ViewTicks.
func TestControllerReadsItsWholeWindow(t *testing.T) {
	const long = 1000 * sim.Millisecond
	eng := sim.New(1)
	sa := obs.NewSampler(obs.Config{Period: sim.Millisecond})
	sa.Gauge("p99", func() float64 { return 500 })
	sa.Attach(eng)
	detect := obs.SLO{Name: "s", Series: "p99", Target: 100, Budget: 0.5, Short: sim.Millisecond, Long: long}
	c, err := New(eng, sa.Store(), &fakeAct{}, Config{Period: sim.Millisecond, Rules: []Rule{{
		Name: "long", Detect: detect, OnFire: ActionSpec{App: 1, Hook: "h", Policy: "p"},
		// Burning from the first tick, it fires on the tick its window
		// first fills.
		Sustain: 1001,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(1500 * sim.Millisecond)
	h := c.History()
	if len(h) != 1 || h[0].AtNS != int64(1001*sim.Millisecond) || !strings.HasSuffix(h[0].Detail, " n=1001") {
		t.Fatalf("history = %+v, want one fire at 1001 ms over 1001 samples", h)
	}
	if r := detect.EvaluateStore(sa.Store(), eng.Now()); r.Samples != 1001 {
		t.Fatalf("warm window holds %d samples, want 1001", r.Samples)
	}
}

// TestControllerRefusesAWindowPastTheCeiling: a window a store will not
// keep (more than 2^16 ticks of the sampler's period) refuses the whole
// table with an error naming the rule and objective that declared it,
// however far past the ceiling it is.
func TestControllerRefusesAWindowPastTheCeiling(t *testing.T) {
	swap := ActionSpec{App: 1, Hook: "h", Policy: "p"}
	ok := obs.SLO{Name: "ok", Series: "p99", Target: 100, Budget: 0.5, Short: sim.Millisecond, Long: 6 * sim.Millisecond}
	for _, c := range []struct {
		long sim.Time
		want string
	}{
		{1 << 16 * 100 * sim.Microsecond, `rule "wide" detect`},
		{1 << 62, `rule "wide" detect`},
		{math.MaxInt64, `rule "wide" clear_detect`},
	} {
		wide := ok
		wide.Long = c.long
		rule := Rule{Name: "wide", Detect: wide, OnFire: swap}
		if strings.HasSuffix(c.want, "clear_detect") {
			rule.Detect, rule.ClearDetect = ok, &wide
		}
		sa := obs.NewSampler(obs.Config{Period: 100 * sim.Microsecond})
		_, err := New(sim.New(1), sa.Store(), &fakeAct{}, Config{Rules: []Rule{{Name: "short", Detect: ok, OnFire: swap}, rule}})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("long window %d ns: err = %v, want one naming %s", c.long, err, c.want)
		}
	}
}
