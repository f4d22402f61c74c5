package cluster

// The fleet arm of the closed-loop controller: rule tables roll out the
// same way policies do (canaries first, bake, gate, then everyone).

import (
	"fmt"

	"syrup/internal/adapt"
	"syrup/internal/sim"
)

// RuleRolloutConfig describes a staged fleet rollout of an adaptive rule
// table (adapt.Config). The gate watches actuation errors in the canaries'
// decision histories during the bake: a rule whose action fails on real
// hosts is broken config.
type RuleRolloutConfig struct {
	// Rules is the controller table to arm.
	Rules adapt.Config
	// Canaries is the stage-1 host count (default ceil(Hosts/8), min 1).
	Canaries int
	// Bake is the virtual time each canary runs the controller before
	// health evaluation (default 2ms).
	Bake sim.Time
	// App/Probes, when set, drive synthetic probe traffic through the
	// canaries during the bake exactly as policy rollouts do — rules need
	// traffic to see anything.
	App    uint32
	Probes int
}

// RuleRolloutReport records one rule-table rollout.
type RuleRolloutReport struct {
	Canaries []int
	// Decisions is the total canary decision count during the bake;
	// Errors collects every failed actuation (rendered decisions).
	Decisions int
	Errors    []string
	Aborted   bool
	Reason    string
	// Enabled counts members running the controller after the rollout.
	Enabled int
}

func (r *RuleRolloutReport) String() string {
	if r.Aborted {
		return fmt.Sprintf("rule rollout ABORTED after canary stage %v: %s (%d decisions, %d errors)",
			r.Canaries, r.Reason, r.Decisions, len(r.Errors))
	}
	return fmt.Sprintf("rule rollout ok: canaries %v baked clean (%d decisions), controller on %d hosts",
		r.Canaries, r.Decisions, r.Enabled)
}

// RolloutRules arms an adaptive rule table across the fleet in two
// stages: enable on the canary subset, bake under (optional) probe
// traffic, inspect the canaries' decision histories for failed
// actuations, and only then enable fleet-wide. An aborted rollout
// disarms the canaries, so a bad table never outlives its bake.
func (c *Cluster) RolloutRules(cfg RuleRolloutConfig) (*RuleRolloutReport, error) {
	stageDefaults(len(c.Members), &cfg.Canaries, &cfg.Bake)
	rep := &RuleRolloutReport{}
	canaries, reason, err := c.staged(stagedRollout{
		canaries: cfg.Canaries,
		// The probe path reuses the policy rollout's bake machinery.
		probe: RolloutConfig{App: cfg.App, Bake: cfg.Bake, Probes: cfg.Probes},
		apply: func(idx int) error {
			if _, err := c.Members[idx].Host.Daemon.EnableAdapt(cfg.Rules); err != nil {
				return fmt.Errorf("cluster: %s: %w", c.Members[idx].Name, err)
			}
			return nil
		},
		health: func(canaries []int) string {
			for _, idx := range canaries {
				for _, d := range c.Members[idx].Host.Daemon.AdaptController().History() {
					rep.Decisions++
					if d.Err != "" {
						rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %s", c.Members[idx].Name, d.String()))
					}
				}
			}
			if len(rep.Errors) > 0 {
				return fmt.Sprintf("%d canary actuation error(s): %s", len(rep.Errors), rep.Errors[0])
			}
			return ""
		},
		revert: func(idx int) error {
			c.Members[idx].Host.Daemon.DisableAdapt()
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	rep.Canaries = canaries
	if reason != "" {
		rep.Aborted, rep.Reason = true, reason
		return rep, nil
	}
	rep.Enabled = len(c.Members)
	return rep, nil
}
