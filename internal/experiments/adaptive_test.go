package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestAdaptiveDominatesStatics is the tentpole shape test: on the
// committed diurnal+burst scenario the controller's (goodput, LS miss)
// point dominates every shipped static policy — at least as good on both
// frontier axes, strictly better somewhere. Concretely the adaptive run
// must match always-shed's perfect LS deadline compliance while beating
// every static's goodput outright.
func TestAdaptiveDominatesStatics(t *testing.T) {
	t.Parallel()
	res := Adaptive(DefaultAdaptive())
	if len(res.Series) != len(adaptivePolicies) {
		t.Fatalf("got %d series, want %d", len(res.Series), len(adaptivePolicies))
	}
	byName := map[string]Row{}
	for _, s := range res.Series {
		if len(s.Rows) != 1 {
			t.Fatalf("series %s has %d rows, want 1", s.Name, len(s.Rows))
		}
		byName[s.Name] = s.Rows[0]
	}
	ad, ok := byName["adaptive rr<->shed"]
	if !ok {
		t.Fatalf("no adaptive series in %v", res.Series)
	}
	if ad.Cols["decisions"] != 2 {
		t.Fatalf("adaptive made %.0f decisions, want exactly 2 (fire, clear) — more means flapping", ad.Cols["decisions"])
	}
	for name, row := range byName {
		if name == "adaptive rr<->shed" {
			continue
		}
		if ad.Cols["goodput_rps"] <= row.Cols["goodput_rps"] {
			t.Errorf("goodput: adaptive %.0f <= %s %.0f, want strictly better",
				ad.Cols["goodput_rps"], name, row.Cols["goodput_rps"])
		}
		if ad.Cols["ls_miss_pct"] > row.Cols["ls_miss_pct"] {
			t.Errorf("LS deadline misses: adaptive %.3f%% > %s %.3f%%",
				ad.Cols["ls_miss_pct"], name, row.Cols["ls_miss_pct"])
		}
		// Color axis: against every non-shedding static the raw LS p99
		// must also collapse (they melt during the burst; the controller
		// doesn't).
		if name != "shed (always)" && ad.Cols["ls_p99_us"] > row.Cols["ls_p99_us"]/10 {
			t.Errorf("ls_p99: adaptive %.1fus vs %s %.1fus, want >10x better",
				ad.Cols["ls_p99_us"], name, row.Cols["ls_p99_us"])
		}
	}
	if ad.Cols["ls_miss_pct"] != 0 {
		t.Errorf("adaptive missed %.3f%% of LS deadlines, want 0 — detection must swap before the deadline is at risk", ad.Cols["ls_miss_pct"])
	}
	// The headline margin: well clear of the best static, not a squeaker.
	best := 0.0
	for name, row := range byName {
		if name != "adaptive rr<->shed" && row.Cols["goodput_rps"] > best {
			best = row.Cols["goodput_rps"]
		}
	}
	if ad.Cols["goodput_rps"] < 1.2*best {
		t.Errorf("adaptive goodput %.0f < 1.2x best static %.0f", ad.Cols["goodput_rps"], best)
	}
}

// TestAdaptiveDecisionSequence pins the control-loop trace on the
// committed scenario: one fire (swap to shed) inside the burst ramp, one
// clear (swap back to round_robin) after the ramp-down — and nothing
// else. The clear must hold through the whole plateau even though the
// shed keeps the fire objective quiet there (the ClearDetect contract).
func TestAdaptiveDecisionSequence(t *testing.T) {
	cfg := DefaultAdaptive()
	_, dec := runAdaptivePoint(cfg, PolicyRoundRobin, true)
	if len(dec) != 2 {
		t.Fatalf("decisions = %v, want exactly fire then clear", dec)
	}
	b0 := cfg.Windows.Warmup + cfg.BurstStart
	plateauEnd := b0 + cfg.BurstRamp + cfg.BurstLen
	fire, clear := dec[0], dec[1]
	if fire.Event != "fire" || !strings.Contains(fire.Action, "-> shed") || fire.Err != "" {
		t.Fatalf("first decision = %+v, want clean swap to shed", fire)
	}
	if clear.Event != "clear" || !strings.Contains(clear.Action, "-> round_robin") || clear.Err != "" {
		t.Fatalf("second decision = %+v, want clean swap back", clear)
	}
	if fire.AtNS < int64(b0) || fire.AtNS > int64(b0+cfg.BurstRamp) {
		t.Errorf("fire at %.2fms, want inside the burst ramp [%v, %v]",
			float64(fire.AtNS)/1e6, b0, b0+cfg.BurstRamp)
	}
	if clear.AtNS < int64(plateauEnd) {
		t.Errorf("clear at %.2fms, before the plateau ends at %v — the shed suppressed its own trigger and the rule flapped",
			float64(clear.AtNS)/1e6, plateauEnd)
	}
}

// TestAdaptDifferentialOff is the adaptive-control gate: a controller whose
// rules never fire must leave the simulation bit-identical to a run with
// no controller at all — the decision ticker draws no randomness and
// schedules nothing observable. Runs the full burst scenario so the
// controller ticks through overload, detection windows and all, while
// acting on none of it.
func TestAdaptDifferentialOff(t *testing.T) {
	cfg := DefaultAdaptive()
	point := func(armed bool) (string, uint64) {
		pt := adaptivePoint(cfg, PolicyRoundRobin, armed)
		if armed {
			pt.Adapt.Rules[0].Detect.Target = 1e18 // unreachable: never fires
			pt.Adapt.Rules[0].ClearDetect.Target = 1e18
		}
		run := runRocksPoint(pt)
		var ticks uint64
		if ctl := run.Host.Daemon.AdaptController(); ctl != nil {
			ticks = ctl.Status().Ticks
			if n := ctl.Status().Decisions; n != 0 {
				t.Fatalf("idle controller made %d decisions", n)
			}
		}
		return StatsDigest(run.Result), ticks
	}
	ref, _ := point(false)
	got, ticks := point(true)
	if ticks == 0 {
		t.Fatal("controller never ticked — the differential is vacuous")
	}
	if got != ref {
		t.Fatalf("idle controller perturbed the simulation:\n--- off\n%s--- armed\n%s", ref, got)
	}
}

// TestAdaptiveDeterminism: the whole closed loop — sampler, objectives,
// swaps under live traffic — replays byte-identically from the seed,
// decision history included.
func TestAdaptiveDeterminism(t *testing.T) {
	cfg := DefaultAdaptive()
	r1, d1 := runAdaptivePoint(cfg, PolicyRoundRobin, true)
	r2, d2 := runAdaptivePoint(cfg, PolicyRoundRobin, true)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("decision histories diverged:\n%v\n%v", d1, d2)
	}
	if g1, g2 := StatsDigest(r1.Result), StatsDigest(r2.Result); g1 != g2 {
		t.Fatalf("stats diverged across identical adaptive runs:\n%s\n%s", g1, g2)
	}
}
