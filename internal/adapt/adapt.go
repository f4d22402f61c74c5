// Package adapt closes Syrup's control loop: a deterministic
// observer→orchestrator controller that watches the host's telemetry
// plane (the obs time-series store: windowed latency percentiles, offered
// load) and reacts through a declarative rule table — hot-swap a policy
// when an SLO burns its budget, and swap back once a recovery signal has
// stayed quiet.
//
// Everything the controller does is a sim-clock event: rules read only
// sampled series, decisions happen on ticker boundaries, and no
// wall-clock or PRNG input exists anywhere on the path. Two runs with the
// same seed produce byte-identical decision histories, and a controller
// whose rules never fire leaves the simulation bit-identical to one that
// was never created (gated by make adapt-diff).
package adapt

import (
	"fmt"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// Actuator is the narrow slice of syrupd the controller drives. The
// daemon adapts itself onto this interface (syrupd.EnableAdapt); tests
// substitute fakes. Keeping the dependency inverted lets syrupd import
// adapt without a cycle.
type Actuator interface {
	// SwapPolicy deploys the named built-in policy for app at hook with
	// deploy-time defines, hot-swapping any existing deployment through
	// the atomic hook.Replace path (stats survive the swap).
	SwapPolicy(app uint32, hook string, policy string, defines map[string]int64) error
}

// ActionSpec declares one reaction: deploy the built-in Policy for App
// at Hook.
type ActionSpec struct {
	App     uint32           `json:"app"`
	Hook    string           `json:"hook,omitempty"`
	Policy  string           `json:"policy,omitempty"`
	Defines map[string]int64 `json:"defines,omitempty"`
}

// String renders the action for decision records and syrup-top
// annotations.
func (a ActionSpec) String() string {
	return fmt.Sprintf("swap app %d %s -> %s", a.App, a.Hook, a.Policy)
}

func (a ActionSpec) validate() error {
	if a.Hook == "" || a.Policy == "" {
		return fmt.Errorf("adapt: swap action needs hook and policy")
	}
	return nil
}

// Rule is one observe→react entry of the table.
type Rule struct {
	Name string `json:"name"`
	// Detect fires while the objective burns its budget on both windows
	// (obs.SLO's multi-window burn rate).
	Detect obs.SLO `json:"detect"`
	// ClearDetect (optional) is a separate recovery signal: when set, the
	// quiet streak counts ticks where THIS objective is not burning, rather
	// than ticks where Detect is not. An action often suppresses its own
	// trigger — shedding best-effort load fixes the p99 burn that fired
	// the shed — so recovery must watch something the action cannot mask
	// (offered load, drop pressure). Detect still vetoes quiet: a tick
	// where the fire signal burns never counts as quiet.
	ClearDetect *obs.SLO `json:"clear_detect,omitempty"`
	// OnFire runs when Detect has fired for Sustain consecutive ticks;
	// OnClear (optional) runs once it has then been quiet for ClearAfter
	// consecutive ticks — typically the inverse swap.
	OnFire  ActionSpec  `json:"on_fire"`
	OnClear *ActionSpec `json:"on_clear,omitempty"`
	// Sustain is the consecutive-firing-tick debounce before OnFire
	// (default 1); ClearAfter is the quiet-tick debounce before OnClear
	// (default Sustain). No-data ticks freeze both streaks: absence of
	// evidence is neither firing nor quiet.
	Sustain    int `json:"sustain,omitempty"`
	ClearAfter int `json:"clear_after,omitempty"`
	// Cooldown is the minimum sim time between this rule's actions
	// (default: one controller period).
	Cooldown sim.Time `json:"cooldown_ns,omitempty"`
}

// Config parameterizes a controller.
type Config struct {
	// Period is the decision tick (default 1ms of sim time). Rules are
	// evaluated and may act once per period.
	Period sim.Time `json:"period_ns,omitempty"`
	Rules  []Rule   `json:"rules"`
}

// Decision is one controller action, stamped with sim time.
type Decision struct {
	AtNS   int64  `json:"at_ns"`
	Rule   string `json:"rule"`
	Event  string `json:"event"` // fire | clear
	Action string `json:"action"`
	Detail string `json:"detail,omitempty"` // burn-rate evidence
	Err    string `json:"err,omitempty"`
}

func (d Decision) String() string {
	s := fmt.Sprintf("%8.2fms %-10s %-8s %s", float64(d.AtNS)/1e6, d.Rule, d.Event, d.Action)
	if d.Detail != "" {
		s += " (" + d.Detail + ")"
	}
	if d.Err != "" {
		s += " ERR=" + d.Err
	}
	return s
}

// RuleStatus is a rule plus its live controller state (the rules op).
type RuleStatus struct {
	Rule
	Firing       bool  `json:"firing"`
	Engaged      bool  `json:"engaged"` // OnFire applied, awaiting clear
	LastActionNS int64 `json:"last_action_ns,omitempty"`
}

// Status summarizes a controller (the status op).
type Status struct {
	Enabled   bool   `json:"enabled"`
	PeriodNS  int64  `json:"period_ns"`
	Ticks     uint64 `json:"ticks"`
	Decisions int    `json:"decisions"`
	Rules     int    `json:"rules"`
}
