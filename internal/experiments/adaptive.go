package experiments

import (
	"fmt"
	"math"

	"syrup"

	"syrup/internal/adapt"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// The adaptive scenario's two tenants. The BE user id matches shed.syr's
// SHED_USER default, but the rule table pins it explicitly anyway — the
// rule, not the policy source, is the operator-facing contract.
const (
	adaptLSUser uint32 = 1
	adaptBEUser uint32 = 2
)

// AdaptiveConfig parameterizes the closed-loop demo: a diurnal two-tenant
// load with a bursty overload episode, served either by one static policy
// for the whole run or by the adapt controller hot-swapping between
// round_robin (calm: every admitted request completes well under the
// deadline) and shed (overload: best-effort traffic is dropped at the
// hook so the latency-sensitive tenant keeps its p99). The numbers are
// committed and tuned at Seed so the controller's (goodput, LS p99) point
// dominates every static policy — the latency/goodput frontier argument.
type AdaptiveConfig struct {
	Seed    uint64
	Windows Windows

	// CalmRate is the diurnal baseline; PeakRate the burst plateau,
	// placed well above 6-core saturation (~390 K RPS on fig7Service).
	CalmRate float64
	PeakRate float64
	// The burst ramps linearly over BurstRamp starting BurstStart into
	// the measure window, holds PeakRate for BurstLen, and ramps back.
	BurstStart sim.Time
	BurstRamp  sim.Time
	BurstLen   sim.Time
	// The diurnal baseline swings CalmRate by ±DiurnalAmp over
	// DiurnalPeriod (a sine — deterministic in sim time).
	DiurnalPeriod sim.Time
	DiurnalAmp    float64

	// Deadline is the goodput cutoff: a completion counts only when its
	// latency is within it.
	Deadline sim.Time
	// SLOTargetUS is the windowed LS p99 the fire objective burns
	// against; RecoverRPS is the offered-load level under which the
	// clear objective lets the controller swap back.
	SLOTargetUS float64
	RecoverRPS  float64
	// ObsPeriod is the sampling AND decision tick — the control loop
	// cannot react faster than it observes.
	ObsPeriod sim.Time
}

// DefaultAdaptive returns the committed demo scenario.
func DefaultAdaptive() AdaptiveConfig {
	return AdaptiveConfig{
		Seed: 61,
		Windows: Windows{
			Warmup:  100 * sim.Millisecond,
			Measure: 500 * sim.Millisecond,
			Drain:   150 * sim.Millisecond,
		},
		CalmRate:      160_000,
		PeakRate:      600_000,
		BurstStart:    150 * sim.Millisecond,
		BurstRamp:     10 * sim.Millisecond,
		BurstLen:      100 * sim.Millisecond,
		DiurnalPeriod: 250 * sim.Millisecond,
		DiurnalAmp:    0.15,
		Deadline:      400 * sim.Microsecond,
		SLOTargetUS:   80,
		RecoverRPS:    280_000,
		ObsPeriod:     100 * sim.Microsecond,
	}
}

// rateFn renders the scenario as an offered-rate function of sim time.
func (cfg AdaptiveConfig) rateFn() func(sim.Time) float64 {
	b0 := cfg.Windows.Warmup + cfg.BurstStart
	b1 := b0 + cfg.BurstRamp
	b2 := b1 + cfg.BurstLen
	b3 := b2 + cfg.BurstRamp
	return func(t sim.Time) float64 {
		phase := 2 * math.Pi * float64(t%cfg.DiurnalPeriod) / float64(cfg.DiurnalPeriod)
		rate := cfg.CalmRate * (1 + cfg.DiurnalAmp*math.Sin(phase))
		var env float64
		switch {
		case t < b0 || t >= b3:
			// outside the burst
		case t < b1:
			env = float64(t-b0) / float64(cfg.BurstRamp)
		case t < b2:
			env = 1
		default:
			env = float64(b3-t) / float64(cfg.BurstRamp)
		}
		return rate + env*(cfg.PeakRate-cfg.CalmRate)
	}
}

// AdaptiveRules is the committed rule table: fire on LS windowed-p99 SLO
// burn, react by swapping to shed, and swap back to round_robin once the
// offered load — NOT the p99, which the shed itself repairs — has stayed
// under RecoverRPS. The split fire/clear signals are the point: an action
// that suppresses its own trigger would flap under a single objective.
func AdaptiveRules(cfg AdaptiveConfig, numThreads int) adapt.Config {
	defines := map[string]int64{
		"NUM_THREADS": int64(numThreads),
		"SHED_USER":   int64(adaptBEUser),
	}
	return adapt.Config{
		Period: cfg.ObsPeriod,
		Rules: []adapt.Rule{{
			Name: "ls_burn",
			Detect: obs.SLO{
				Name:   "ls_p99",
				Series: "latency_LS_win_p99_us",
				Target: cfg.SLOTargetUS,
				Budget: 0.5,
				Short:  3 * cfg.ObsPeriod,
				Long:   6 * cfg.ObsPeriod,
			},
			ClearDetect: &obs.SLO{
				Name:   "overload",
				Series: "offered_rps",
				Target: cfg.RecoverRPS,
				Budget: 0.5,
				Short:  3 * cfg.ObsPeriod,
				Long:   6 * cfg.ObsPeriod,
			},
			OnFire: adapt.ActionSpec{
				App: rocksApp, Hook: string(syrup.HookSocketSelect),
				Policy: policy.NameShed, Defines: defines,
			},
			OnClear: &adapt.ActionSpec{
				App: rocksApp, Hook: string(syrup.HookSocketSelect),
				Policy: policy.NameRoundRobin, Defines: defines,
			},
			Sustain:    2,
			ClearAfter: 30,
			Cooldown:   20 * cfg.ObsPeriod,
		}},
	}
}

// adaptivePolicies are the frontier contestants, in display order.
var adaptivePolicies = []struct {
	Name     string
	Policy   SocketPolicy
	Adaptive bool
}{
	{"hash (vanilla)", PolicyVanilla, false},
	{"round_robin", PolicyRoundRobin, false},
	{"token 350K", PolicyToken, false},
	{"shed (always)", PolicyShed, false},
	{"adaptive rr<->shed", PolicyRoundRobin, true},
}

// adaptiveClasses is the scenario's tenant mix.
func adaptiveClasses() []workload.Class {
	return []workload.Class{
		{Name: "LS", Weight: 0.4, Type: policy.ReqGET, UserID: adaptLSUser},
		{Name: "BE", Weight: 0.6, Type: policy.ReqGET, UserID: adaptBEUser},
	}
}

// adaptivePoint is one contestant's point in the committed scenario.
func adaptivePoint(cfg AdaptiveConfig, pol SocketPolicy, adaptive bool) rocksPoint {
	pt := rocksPoint{
		Seed:       cfg.Seed,
		Load:       cfg.CalmRate,
		RateFn:     cfg.rateFn(),
		NumCPUs:    6,
		NumThreads: 6,
		PinToCores: true,
		Classes:    adaptiveClasses(),
		Policy:     pol,
		Service:    fig7Service,
		TokenRate:  350_000,
		LSUser:     adaptLSUser,
		BEUser:     adaptBEUser,
		Deadline:   cfg.Deadline,
		Run:        RunConfig{Windows: cfg.Windows, ObsPeriod: cfg.ObsPeriod},
	}
	if adaptive {
		rules := AdaptiveRules(cfg, pt.NumThreads)
		pt.Adapt = &rules
	}
	return pt
}

// runAdaptivePoint runs one contestant through the committed scenario.
func runAdaptivePoint(cfg AdaptiveConfig, pol SocketPolicy, adaptive bool) (*rocksRun, []adapt.Decision) {
	run := runRocksPoint(adaptivePoint(cfg, pol, adaptive))
	var decisions []adapt.Decision
	if ctl := run.Host.Daemon.AdaptController(); ctl != nil {
		decisions = ctl.History()
	}
	return run, decisions
}

// Adaptive runs the closed-loop demo: every static policy and the
// controller through the identical diurnal+burst load, reporting each
// contestant's point on the latency/goodput frontier. goodput_rps counts
// only completions within the deadline (both tenants); ls_miss_pct is
// the fraction of LS requests that missed it (dropped or late) — the
// latency axis of the frontier, since the deadline is the latency
// contract. ls_p99_us is reported for color: against always-shed a raw
// p99 comparison is structurally unwinnable (shedding BE even in calm
// runs the server at a fraction of the utilization), which is exactly
// why always-shed forfeits 60% of the calm goodput.
func Adaptive(cfg AdaptiveConfig) *Result {
	res := &Result{
		Name:  "adaptive",
		Title: "Closed-loop adaptive scheduling vs static policies (diurnal + burst overload)",
		XLabel: fmt.Sprintf("burst peak (RPS), calm %.0fK diurnal +/-%.0f%%",
			cfg.CalmRate/1000, 100*cfg.DiurnalAmp),
		Columns: []string{"goodput_rps", "ls_miss_pct", "ls_p99_us", "be_tput_rps", "drop_pct", "decisions"},
		Notes: []string{
			fmt.Sprintf("goodput counts completions within the %v deadline; LS/BE split 40/60", cfg.Deadline),
			"frontier axes: goodput_rps (up) vs ls_miss_pct (down); ls_p99_us shown for color",
			"controller: fire on LS windowed-p99 SLO burn -> swap to shed;",
			"clear on offered load (not p99 - the shed suppresses its own trigger) -> swap back to round_robin",
		},
	}
	measureSec := float64(cfg.Windows.Measure) / 1e9
	for _, s := range adaptivePolicies {
		run, decisions := runAdaptivePoint(cfg, s.Policy, s.Adaptive)
		r := run.Result
		ls, be := r.PerClass["LS"], r.PerClass["BE"]
		total := r.All
		row := Row{X: cfg.PeakRate, Cols: map[string]float64{
			"goodput_rps": float64(total.DeadlineHits) / measureSec,
			"ls_miss_pct": 100 * float64(ls.Offered-ls.DeadlineHits) / float64(ls.Offered),
			"ls_p99_us":   float64(ls.Latency.Percentile(99)) / 1000,
			"be_tput_rps": be.ThroughputRPS(),
			"drop_pct":    100 * total.DropFraction(),
			"decisions":   float64(len(decisions)),
		}}
		res.Series = append(res.Series, Series{Name: s.Name, Rows: []Row{row}})
		for _, d := range decisions {
			res.Notes = append(res.Notes, "decision: "+d.String())
		}
	}
	return res
}
