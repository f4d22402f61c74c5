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
		cfg.Telemetry = &obs.Config{Period: period}
	})
}

// alwaysRule is a one-rule table whose objective burns as soon as
// telemetry flows (every sampled value exceeds a negative target).
func alwaysRule(onFire adapt.ActionSpec) adapt.Config {
	return adapt.Config{
		Period: 100 * sim.Microsecond,
		Rules: []adapt.Rule{{
			Name: "always",
			Detect: obs.SLO{Name: "backlog", Series: "softirq_backlog", Target: -1, Budget: 1,
				Short: 200 * sim.Microsecond, Long: 500 * sim.Microsecond},
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
			App: testApp, Hook: string(syrup.HookSocketSelect), Policy: "round_robin",
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
			App: testApp, Hook: string(syrup.HookSocketSelect), Policy: "no_such_policy",
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
