package adapt

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// fakeAct records actuations.
type fakeAct struct {
	calls  []string
	fail   map[string]error // action kind -> forced error
	faults uint64
}

func (f *fakeAct) SwapPolicy(app uint32, hk, pol string, _ map[string]int64) error {
	f.calls = append(f.calls, fmt.Sprintf("swap %d %s %s", app, hk, pol))
	return f.fail["swap"]
}

func (f *fakeAct) Quarantine(app uint32, hk string) error {
	f.calls = append(f.calls, fmt.Sprintf("quarantine %d %s", app, hk))
	return f.fail["quarantine"]
}

func (f *fakeAct) MapSet(app uint32, name string, key uint32, value uint64) error {
	f.calls = append(f.calls, fmt.Sprintf("map_set %d %s %d %d", app, name, key, value))
	return f.fail["map_set"]
}

func (f *fakeAct) Faults(app uint32, hk string) uint64 { return f.faults }

// burnRule is a one-rule table: swap to shed when p99 burns, swap back
// on clear.
func burnRule() Config {
	return Config{
		Period: 100,
		Rules: []Rule{{
			Name: "ls_burn",
			Detect: DetectorSpec{
				Kind: "slo_burn",
				SLO:  &obs.SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.1, Short: 300, Long: 1000},
			},
			OnFire:  ActionSpec{Kind: "swap", App: 1, Hook: "socket-select", Policy: "shed"},
			OnClear: &ActionSpec{Kind: "swap", App: 1, Hook: "socket-select", Policy: "round_robin"},
			Sustain: 2, ClearAfter: 3, Cooldown: 500,
		}},
	}
}

// driveP99 appends one p99 sample every 100ns whose value is bad inside
// [badFrom, badTo).
func driveP99(eng *sim.Engine, st *obs.Store, badFrom, badTo, until sim.Time) {
	s := st.Series("p99")
	for t := sim.Time(50); t < until; t += 100 {
		at := t
		eng.CallAt(at, func(any, uint64) {
			v := 50.0
			if at >= badFrom && at < badTo {
				v = 500
			}
			s.Append(at, v)
		}, nil, 0)
	}
}

func TestControllerFireAndClear(t *testing.T) {
	eng := sim.New(1)
	st := obs.NewStore(256)
	act := &fakeAct{}
	c, err := New(eng, st, act, burnRule())
	if err != nil {
		t.Fatal(err)
	}
	driveP99(eng, st, 2000, 4000, 10_000)
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
	if rs[0].Engaged || rs[0].Unconverged != 0 {
		t.Fatalf("rule state after clear = %+v, want disengaged and reset", rs[0])
	}
}

// TestControllerDeterminism: identical seeds and inputs yield
// byte-identical decision histories — decisions are sim-clock events.
func TestControllerDeterminism(t *testing.T) {
	run := func() []Decision {
		eng := sim.New(7)
		st := obs.NewStore(256)
		c, err := New(eng, st, &fakeAct{}, burnRule())
		if err != nil {
			t.Fatal(err)
		}
		driveP99(eng, st, 2000, 4000, 10_000)
		eng.RunUntil(10_000)
		return c.History()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("histories differ:\n%v\n%v", a, b)
	}
}

// TestControllerEscalates: a reaction that never converges (the series
// stays bad) re-fires through the cooldown and then escalates to
// quarantine exactly once.
func TestControllerEscalates(t *testing.T) {
	cfg := burnRule()
	cfg.Rules[0].OnClear = nil
	cfg.Rules[0].EscalateAfter = 3
	cfg.Rules[0].Escalate = &ActionSpec{Kind: "quarantine", App: 1, Hook: "socket-select"}

	eng := sim.New(1)
	st := obs.NewStore(256)
	act := &fakeAct{}
	c, err := New(eng, st, act, cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveP99(eng, st, 1000, 50_000, 50_000) // bad forever
	eng.RunUntil(50_000)

	var swaps, quars int
	for _, call := range act.calls {
		if strings.HasPrefix(call, "swap") {
			swaps++
		}
		if strings.HasPrefix(call, "quarantine") {
			quars++
		}
	}
	if swaps != 1 || quars != 1 {
		t.Fatalf("swaps=%d quarantines=%d (calls %v), want one swap, then escalation after 3 unconverged periods", swaps, quars, act.calls)
	}
	h := c.History()
	if h[len(h)-1].Event != "escalate" {
		t.Fatalf("last decision = %+v, want escalate", h[len(h)-1])
	}
	if !c.Rules()[0].Escalated {
		t.Fatalf("rule not marked escalated")
	}
}

// TestControllerNoDataFreezes: a detector with no evidence neither fires
// nor clears; the controller does nothing all run.
func TestControllerNoDataFreezes(t *testing.T) {
	eng := sim.New(1)
	st := obs.NewStore(256)
	act := &fakeAct{}
	c, err := New(eng, st, act, burnRule()) // series "p99" never created
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
	st := obs.NewStore(256)
	act := &fakeAct{fail: map[string]error{"swap": fmt.Errorf("quarantined")}}
	c, err := New(eng, st, act, burnRule())
	if err != nil {
		t.Fatal(err)
	}
	driveP99(eng, st, 1000, 5000, 5000)
	eng.RunUntil(5000)
	h := c.History()
	if len(h) == 0 || h[0].Err == "" {
		t.Fatalf("history = %+v, want recorded error", h)
	}
}

func TestDispersionDetector(t *testing.T) {
	st := obs.NewStore(16)
	d, err := compileDetector(DetectorSpec{Kind: "dispersion", Series: "lat_win_p99_us", Denom: "lat_win_p50_us", Ratio: 5}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.eval(0); !v.noData {
		t.Fatalf("missing series: %+v, want noData", v)
	}
	st.Series("lat_win_p99_us").Append(100, 40)
	st.Series("lat_win_p50_us").Append(100, 10)
	if v := d.eval(100); v.firing || v.noData {
		t.Fatalf("ratio 4 under threshold 5: %+v", v)
	}
	st.Series("lat_win_p99_us").Append(200, 80)
	st.Series("lat_win_p50_us").Append(200, 10)
	if v := d.eval(200); !v.firing {
		t.Fatalf("ratio 8 over threshold 5: %+v", v)
	}
	st.Series("lat_win_p50_us").Append(300, 0) // empty interval
	if v := d.eval(300); !v.noData {
		t.Fatalf("zero denominator: %+v, want noData", v)
	}
}

func TestImbalanceDetector(t *testing.T) {
	st := obs.NewStore(16)
	d, err := compileDetector(DetectorSpec{Kind: "imbalance", Group: []string{"q0", "q1", "q2", "q3"}, Ratio: 3}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{10, 10, 10, 10} {
		st.Series(fmt.Sprintf("q%d", i)).Append(100, v)
	}
	if v := d.eval(100); v.firing {
		t.Fatalf("balanced group fired: %+v", v)
	}
	st.Series("q2").Append(200, 100) // mean 32.5, max 100 >= 3x
	if v := d.eval(200); !v.firing {
		t.Fatalf("hot queue not detected: %+v", v)
	}
}

func TestFaultSpikeDetector(t *testing.T) {
	act := &fakeAct{faults: 50}
	d, err := compileDetector(DetectorSpec{Kind: "fault_spike", App: 1, Hook: "xdp-drv", Count: 10}, nil, act)
	if err != nil {
		t.Fatal(err)
	}
	// First tick primes: boot faults are not a spike.
	if v := d.eval(0); !v.noData {
		t.Fatalf("first tick: %+v, want baseline priming", v)
	}
	act.faults = 55
	if v := d.eval(100); v.firing {
		t.Fatalf("+5 under threshold fired: %+v", v)
	}
	act.faults = 80
	if v := d.eval(200); !v.firing {
		t.Fatalf("+25 over threshold: %+v", v)
	}
	act.faults = 3 // link replaced: counter restarted
	if v := d.eval(300); v.firing {
		t.Fatalf("counter restart read as spike: %+v", v)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New(1)
	st := obs.NewStore(16)
	bad := []Config{
		{Rules: []Rule{{Name: "", Detect: DetectorSpec{Kind: "slo_burn"}}}},
		{Rules: []Rule{{Name: "x", Detect: DetectorSpec{Kind: "nope"}, OnFire: ActionSpec{Kind: "swap", Hook: "h", Policy: "p"}}}},
		{Rules: []Rule{{Name: "x", Detect: DetectorSpec{Kind: "dispersion"}, OnFire: ActionSpec{Kind: "swap", Hook: "h", Policy: "p"}}}},
		{Rules: []Rule{{
			Name:   "x",
			Detect: DetectorSpec{Kind: "dispersion", Series: "a", Denom: "b", Ratio: 2},
			OnFire: ActionSpec{Kind: "swap"}, // missing hook/policy
		}}},
	}
	for i, cfg := range bad {
		if _, err := New(eng, st, &fakeAct{}, cfg); err == nil {
			t.Fatalf("config %d accepted, want error", i)
		}
	}
	if _, err := New(eng, nil, &fakeAct{}, Config{}); err == nil {
		t.Fatalf("nil store accepted")
	}
}

// TestControllerClearDetector: a rule whose action suppresses its own
// trigger (shedding fixes the p99 that fired the shed) must not clear
// while the declared recovery signal still fires — the quiet streak
// follows ClearDetect, not the fire detector's silence.
func TestControllerClearDetector(t *testing.T) {
	cfg := burnRule()
	cfg.Rules[0].ClearDetect = &DetectorSpec{
		Kind: "slo_burn",
		SLO:  &obs.SLO{Name: "overload", Series: "load", Target: 100, Budget: 0.5, Short: 300, Long: 1000},
	}
	eng := sim.New(1)
	st := obs.NewStore(256)
	act := &fakeAct{}
	c, err := New(eng, st, act, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// p99 goes bad at 2000 and recovers at 4000 (the shed "worked"), but
	// the offered-load signal stays hot until 7000.
	driveP99(eng, st, 2000, 4000, 10_000)
	load := st.Series("load")
	for ti := sim.Time(50); ti < 10_000; ti += 100 {
		at := ti
		eng.CallAt(at, func(any, uint64) {
			v := 500.0
			if at >= 7000 {
				v = 50
			}
			load.Append(at, v)
		}, nil, 0)
	}
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
		t.Fatalf("clear detail = %q, want clear-detector evidence", h[1].Detail)
	}
}

// TestControllerClearDetectorValidation: a broken clear detector is a
// construction-time error, not a silent no-op.
func TestControllerClearDetectorValidation(t *testing.T) {
	cfg := burnRule()
	cfg.Rules[0].ClearDetect = &DetectorSpec{Kind: "no_such_kind"}
	if _, err := New(sim.New(1), obs.NewStore(16), &fakeAct{}, cfg); err == nil {
		t.Fatal("controller accepted an invalid clear detector")
	}
}

// TestVerdictDetail pins the evidence strings decisions record: they are
// rendered lazily from the verdict's numbers, and must read exactly as
// when every eval formatted them eagerly.
func TestVerdictDetail(t *testing.T) {
	st := obs.NewStore(16)
	st.Series("p99").Append(100, 500)
	st.Series("p50").Append(100, 40)
	st.Series("q0").Append(100, 90)
	st.Series("q1").Append(100, 10)
	act := &fakeAct{faults: 5}
	for _, tc := range []struct {
		spec DetectorSpec
		want []string // detail of successive evals
	}{
		{DetectorSpec{Kind: "slo_burn", SLO: &obs.SLO{Name: "s", Series: "p99", Target: 100, Budget: 0.5, Short: 50, Long: 100}},
			[]string{"short=2.00x long=2.00x n=1"}},
		{DetectorSpec{Kind: "dispersion", Series: "p99", Denom: "p50", Ratio: 5},
			[]string{"p99/p50=12.50 thr=5.00"}},
		{DetectorSpec{Kind: "dispersion", Series: "p99", Denom: "nope", Ratio: 5},
			[]string{"series missing"}},
		{DetectorSpec{Kind: "imbalance", Group: []string{"q0", "q1"}, Ratio: 1.5},
			[]string{"max=90.0 mean=50.0 thr=1.50x"}},
		{DetectorSpec{Kind: "imbalance", Group: []string{"q0", "q9"}, Ratio: 1.5},
			[]string{"series missing: q9"}},
		{DetectorSpec{Kind: "fault_spike", App: 1, Hook: "xdp-drv", Count: 3},
			[]string{"baseline", "faults+0 thr=3"}},
	} {
		d, err := compileDetector(tc.spec, st, act)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			if got := d.eval(100).detail(); got != want {
				t.Errorf("%s eval %d: detail = %q, want %q", tc.spec.Kind, i, got, want)
			}
		}
	}
}

// TestZeroAllocTick gates the controller's steady state: a decision tick
// on which no rule acts — every detector kind evaluated, healthy or
// firing below its debounce — stays off the allocator. Only a recorded
// decision pays for formatting its evidence.
func TestZeroAllocTick(t *testing.T) {
	eng := sim.New(1)
	st := obs.NewStore(256)
	act := &fakeAct{}
	swap := ActionSpec{Kind: "swap", App: 1, Hook: "socket-select", Policy: "shed"}
	slo := &obs.SLO{Name: "ls_p99", Series: "p99", Target: 100, Budget: 0.1, Short: 300, Long: 1000}
	cfg := Config{Period: 100, Rules: []Rule{
		{Name: "burn", Detect: DetectorSpec{Kind: "slo_burn", SLO: slo}, OnFire: swap,
			ClearDetect: &DetectorSpec{Kind: "slo_burn", SLO: slo}},
		// Fires on every tick, but never for the million ticks its
		// debounce asks for.
		{Name: "disp", Detect: DetectorSpec{Kind: "dispersion", Series: "p99", Denom: "p50", Ratio: 1.5}, OnFire: swap, Sustain: 1 << 20},
		{Name: "imb", Detect: DetectorSpec{Kind: "imbalance", Group: []string{"p99", "p50"}, Ratio: 3}, OnFire: swap},
		{Name: "gone", Detect: DetectorSpec{Kind: "imbalance", Group: []string{"p99", "nope"}, Ratio: 3}, OnFire: swap},
		{Name: "faults", Detect: DetectorSpec{Kind: "fault_spike", App: 1, Hook: "xdp-drv", Count: 10}, OnFire: swap},
	}}
	c, err := New(eng, st, act, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p99, p50 := st.Series("p99"), st.Series("p50")
	now := sim.Time(0)
	step := func() {
		now += 100
		p99.Append(now-50, 50)
		p50.Append(now-50, 25)
		eng.RunUntil(now)
	}
	for i := 0; i < 20; i++ {
		step() // fill the burn windows, prime the fault baseline
	}
	ticks := c.Status().Ticks
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("idle controller tick allocates %.1f/run, want 0", allocs)
	}
	if got := c.Status(); got.Ticks < ticks+200 || got.Decisions != 0 || len(act.calls) != 0 {
		t.Fatalf("status = %+v calls = %v, want >=200 more ticks and no decision", got, act.calls)
	}
	if rs := c.Rules(); !rs[1].Firing {
		t.Fatalf("dispersion rule = %+v, want firing (under its debounce)", rs[1])
	}
}
