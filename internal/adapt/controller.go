package adapt

import (
	"fmt"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// DefaultPeriod is the decision tick when Config.Period is zero.
const DefaultPeriod = sim.Millisecond

// historyCap bounds the retained decision log; Status.Decisions keeps
// counting past it.
const historyCap = 256

// ruleState is one rule plus its debounce state machine.
type ruleState struct {
	spec       Rule
	firing     bool // last raw verdict (data ticks only)
	streak     int  // consecutive firing ticks
	quiet      int  // consecutive quiet ticks
	engaged    bool // OnFire applied, awaiting clear
	lastAction sim.Time
	acted      bool // lastAction is meaningful
}

// Controller evaluates a rule table on a fixed sim-clock tick. It takes
// no lock: one loop owns a host (DESIGN.md "One owner per host"), so ticks
// run inside its engine, and control-plane reads (Status/Rules/History)
// run on that loop, between events.
type Controller struct {
	eng    *sim.Engine
	store  *obs.Store
	act    Actuator
	period sim.Time

	rules   []*ruleState
	ticker  *sim.Ticker
	enabled bool

	ticks     uint64
	decisions int
	history   []Decision
}

// New validates cfg, binds it to the host's telemetry store and actuator,
// declares the rules' longest window to the store (Store.Keep) and arms
// the decision ticker. The ticker draws no randomness and, while
// no rule acts, changes nothing observable — runs with an idle controller
// stay bit-identical to runs without one (the quarantine-watchdog
// argument, gated by TestAdaptDifferentialOff).
func New(eng *sim.Engine, store *obs.Store, act Actuator, cfg Config) (*Controller, error) {
	if store == nil {
		return nil, fmt.Errorf("adapt: controller needs a telemetry store (enable the sampler)")
	}
	period := cfg.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	c := &Controller{eng: eng, store: store, act: act, period: period}
	for _, r := range cfg.Rules {
		if r.Name == "" {
			return nil, fmt.Errorf("adapt: every rule needs a name")
		}
		if err := r.Detect.Validate(); err != nil {
			return nil, fmt.Errorf("adapt: rule %q detect: %w", r.Name, err)
		}
		if r.ClearDetect != nil {
			if err := r.ClearDetect.Validate(); err != nil {
				return nil, fmt.Errorf("adapt: rule %q clear_detect: %w", r.Name, err)
			}
		}
		if err := r.OnFire.validate(); err != nil {
			return nil, fmt.Errorf("adapt: rule %q on_fire: %w", r.Name, err)
		}
		if r.OnClear != nil {
			if err := r.OnClear.validate(); err != nil {
				return nil, fmt.Errorf("adapt: rule %q on_clear: %w", r.Name, err)
			}
		}
		if r.Sustain <= 0 {
			r.Sustain = 1
		}
		if r.ClearAfter <= 0 {
			r.ClearAfter = r.Sustain
		}
		if r.Cooldown <= 0 {
			r.Cooldown = period
		}
		c.rules = append(c.rules, &ruleState{spec: r})
	}
	// Declare the longest window to the store only once the whole table
	// has validated: one Keep covers every shorter window, so each
	// evaluation sees every sample its window spans, and a refused table
	// grows nothing.
	var longest sim.Time
	var owner string
	for _, rs := range c.rules {
		r := rs.spec
		if r.Detect.Long > longest {
			longest, owner = r.Detect.Long, fmt.Sprintf("rule %q detect", r.Name)
		}
		if r.ClearDetect != nil && r.ClearDetect.Long > longest {
			longest, owner = r.ClearDetect.Long, fmt.Sprintf("rule %q clear_detect", r.Name)
		}
	}
	if err := store.Keep(longest); err != nil {
		return nil, fmt.Errorf("adapt: %s: %w", owner, err)
	}
	c.ticker = eng.NewTicker(period, c.tick)
	c.enabled = true
	return c, nil
}

// Stop disarms the controller; the rule table and decision history stay
// readable.
func (c *Controller) Stop() {
	if c.enabled {
		c.ticker.Stop()
		c.enabled = false
	}
}

// Period returns the decision tick.
func (c *Controller) Period() sim.Time { return c.period }

// tick is one decision round: every rule's objectives are evaluated, then
// its debounce state machine may act. Rules run in table order; order is
// part of the (deterministic) semantics.
func (c *Controller) tick() {
	now := c.eng.Now()
	c.ticks++
	for _, rs := range c.rules {
		c.step(rs, now)
	}
}

func (c *Controller) step(rs *ruleState, now sim.Time) {
	v := rs.spec.Detect.EvaluateStore(c.store, now)
	if !v.NoData {
		rs.firing = v.Burning
		if v.Burning {
			rs.streak++
			rs.quiet = 0
		} else {
			rs.streak = 0
		}
	}
	// Quiet evidence: the clear objective when the rule declares one, the
	// fire objective's own silence otherwise. Either way the fire signal
	// vetoes quiet, and a no-data tick freezes whichever streak the blind
	// objective feeds — absence of evidence is neither firing nor quiet.
	clearEvidence := v
	if rs.spec.ClearDetect == nil {
		if v.NoData {
			return
		}
		if !v.Burning {
			rs.quiet++
		}
	} else if q := rs.spec.ClearDetect.EvaluateStore(c.store, now); !q.NoData {
		clearEvidence = q
		if q.Burning || rs.firing {
			rs.quiet = 0
		} else {
			rs.quiet++
		}
	}

	coolingDown := rs.acted && now-rs.lastAction < rs.spec.Cooldown
	switch {
	case !rs.engaged:
		// A failed actuation leaves the rule disengaged; the cooldown
		// paces the retry.
		if !v.NoData && rs.streak >= rs.spec.Sustain && !coolingDown {
			if c.apply(rs, rs.spec.OnFire, "fire", v, now) == nil {
				rs.engaged = true
			}
		}
	case rs.quiet >= rs.spec.ClearAfter && !coolingDown:
		// Healthy again: revert (if declared). A failed revert keeps the
		// rule engaged and retries after the cooldown.
		if rs.spec.OnClear != nil && c.apply(rs, *rs.spec.OnClear, "clear", clearEvidence, now) != nil {
			return
		}
		rs.engaged = false
	}
}

// apply runs one swap through the actuator and records the decision,
// rendering the burn-rate evidence r only now that something reads it.
func (c *Controller) apply(rs *ruleState, a ActionSpec, event string, r obs.SLOResult, now sim.Time) error {
	err := c.act.SwapPolicy(a.App, a.Hook, a.Policy, a.Defines)
	d := Decision{
		AtNS: int64(now), Rule: rs.spec.Name, Event: event, Action: a.String(),
		Detail: fmt.Sprintf("short=%.2fx long=%.2fx n=%d", r.ShortBurn, r.LongBurn, r.Samples),
	}
	if err != nil {
		d.Err = err.Error()
	}
	rs.lastAction = now
	rs.acted = true
	c.decisions++
	c.history = append(c.history, d)
	if len(c.history) > historyCap {
		c.history = append(c.history[:0], c.history[len(c.history)-historyCap:]...)
	}
	return err
}

// Status summarizes the controller.
func (c *Controller) Status() Status {
	return Status{
		Enabled:   c.enabled,
		PeriodNS:  int64(c.period),
		Ticks:     c.ticks,
		Decisions: c.decisions,
		Rules:     len(c.rules),
	}
}

// Rules returns every rule with its live state, in table order.
func (c *Controller) Rules() []RuleStatus {
	out := make([]RuleStatus, len(c.rules))
	for i, rs := range c.rules {
		out[i] = RuleStatus{
			Rule:    rs.spec,
			Firing:  rs.firing,
			Engaged: rs.engaged,
		}
		if rs.acted {
			out[i].LastActionNS = int64(rs.lastAction)
		}
	}
	return out
}

// History returns the retained decision log, oldest first.
func (c *Controller) History() []Decision {
	out := make([]Decision, len(c.history))
	copy(out, c.history)
	return out
}
