package cluster

import (
	"strings"
	"testing"

	"syrup"
	"syrup/internal/adapt"
	"syrup/internal/obs"
	"syrup/internal/sim"
)

// telemetryCluster builds a test cluster whose members sample telemetry
// with the given period.
func telemetryCluster(t *testing.T, hosts int, period sim.Time) *Cluster {
	return newTestCluster(t, hosts, func(i int, cfg *syrup.HostConfig) {
		cfg.Telemetry = &obs.Config{Period: period, Capacity: 512}
	})
}

// TestRolloutExtendsBakeOnNoData: a sampler slower than the SLO's short
// window leaves the first gate without evidence; the gate must extend
// the bake until a sample lands instead of waving the rollout through.
func TestRolloutExtendsBakeOnNoData(t *testing.T) {
	// Samples land at 1.3ms, 2.6ms, 3.9ms, ... The first gate (bake end,
	// 2ms) finds the short window [1.5ms, 2ms] empty; the second (4ms)
	// finds 3.9ms inside [3.5ms, 4ms].
	c := telemetryCluster(t, 4, 1300*sim.Microsecond)
	rep, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n",
		SLOs: []obs.SLO{{Name: "backlog", Series: "softirq_backlog", Target: 1e9, Budget: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatalf("rollout aborted: %s (slo=%+v)", rep.Reason, rep.SLOResults)
	}
	if rep.Extended != 1 {
		t.Fatalf("Extended = %d, want exactly 1 bake extension", rep.Extended)
	}
	if rep.Deployed != 4 {
		t.Fatalf("deployed to %d hosts, want 4", rep.Deployed)
	}
	for _, r := range rep.SLOResults {
		if r.NoData {
			t.Fatalf("gate passed with a no-data objective: %+v", r)
		}
	}
}

// TestRolloutNoDataAborts: an objective that never gets data (missing
// series) exhausts the bake extensions and aborts — no-data is never a
// pass.
func TestRolloutNoDataAborts(t *testing.T) {
	c := telemetryCluster(t, 4, 100*sim.Microsecond)
	rep, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n",
		SLOs: []obs.SLO{{Name: "ghost", Series: "no_such_series", Target: 1, Budget: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted || !strings.Contains(rep.Reason, "no data") {
		t.Fatalf("want no-data abort, got %+v", rep)
	}
	if rep.Extended != 3 {
		t.Fatalf("Extended = %d, want the default 3 extensions", rep.Extended)
	}
	if got := attachedCount(c); got != 0 {
		t.Fatalf("policy still attached on %d hosts after no-data abort", got)
	}
}

// alwaysRule is a one-rule table whose detector fires as soon as
// telemetry flows (every sampled value exceeds a negative target).
func alwaysRule(onFire adapt.ActionSpec) adapt.Config {
	return adapt.Config{
		Period: 100 * sim.Microsecond,
		Rules: []adapt.Rule{{
			Name: "always",
			Detect: adapt.DetectorSpec{
				Kind: "slo_burn",
				SLO: &obs.SLO{Name: "backlog", Series: "softirq_backlog", Target: -1, Budget: 1,
					Short: 200 * sim.Microsecond, Long: 500 * sim.Microsecond},
			},
			OnFire: onFire,
		}},
	}
}

// TestRolloutRulesFleetWide: a rule table whose canary actuations
// succeed arms the controller on every host, and the fleet scrape
// carries the canary's decisions.
func TestRolloutRulesFleetWide(t *testing.T) {
	c := telemetryCluster(t, 8, 50*sim.Microsecond)
	rep, err := c.RolloutRules(RuleRolloutConfig{
		Rules: alwaysRule(adapt.ActionSpec{
			Kind: "swap", App: testApp, Hook: string(syrup.HookSocketSelect), Policy: "round_robin",
		}),
		App: testApp, Probes: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatalf("rule rollout aborted: %s (errors %v)", rep.Reason, rep.Errors)
	}
	if rep.Decisions == 0 {
		t.Fatal("canary bake produced no decisions — the always-fire rule never fired")
	}
	if rep.Enabled != 8 {
		t.Fatalf("controller on %d hosts, want 8", rep.Enabled)
	}
	for i, m := range c.Members {
		ctl := m.Host.Daemon.AdaptController()
		if ctl == nil || !ctl.Status().Enabled {
			t.Fatalf("host %d controller not armed", i)
		}
	}
	snap, err := c.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, hs := range snap.Hosts {
		if len(hs.Decisions) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("fleet scrape carries no controller decisions")
	}
}

// TestRolloutRulesAbortsOnActuationError: a table whose action cannot
// execute (unknown policy) must abort at the canary stage and disarm
// the canaries.
func TestRolloutRulesAbortsOnActuationError(t *testing.T) {
	c := telemetryCluster(t, 8, 50*sim.Microsecond)
	rep, err := c.RolloutRules(RuleRolloutConfig{
		Rules: alwaysRule(adapt.ActionSpec{
			Kind: "swap", App: testApp, Hook: string(syrup.HookSocketSelect), Policy: "no_such_policy",
		}),
		App: testApp, Probes: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted || !strings.Contains(rep.Reason, "actuation error") {
		t.Fatalf("want actuation-error abort, got %+v", rep)
	}
	for _, idx := range rep.Canaries {
		if ctl := c.Members[idx].Host.Daemon.AdaptController(); ctl != nil && ctl.Status().Enabled {
			t.Fatalf("canary %d controller still armed after abort", idx)
		}
	}
	armed := 0
	for _, m := range c.Members {
		if ctl := m.Host.Daemon.AdaptController(); ctl != nil && ctl.Status().Enabled {
			armed++
		}
	}
	if armed != 0 {
		t.Fatalf("%d hosts armed after aborted rule rollout", armed)
	}
}
