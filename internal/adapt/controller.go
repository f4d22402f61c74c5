package adapt

import (
	"fmt"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// DefaultPeriod is the decision tick when Config.Period is zero.
const DefaultPeriod = sim.Millisecond

// ruleState is one rule's compiled detector plus its debounce state
// machine.
type ruleState struct {
	spec        Rule
	det         detector
	clearDet    detector // nil unless the rule declares ClearDetect
	firing      bool     // last raw verdict (data ticks only)
	streak      int      // consecutive firing ticks
	quiet       int      // consecutive quiet ticks
	engaged     bool     // OnFire applied, awaiting clear
	unconverged int      // cooldown periods still firing after OnFire
	escalated   bool
	lastAction  sim.Time
	acted       bool // lastAction is meaningful
}

// Controller evaluates a rule table on a fixed sim-clock tick. It is
// single-threaded: ticks run inside the engine, and control-plane reads
// (Status/Rules/History) happen between events under the daemon's lock.
type Controller struct {
	eng     *sim.Engine
	store   *obs.Store
	act     Actuator
	period  sim.Time
	histCap int

	rules   []*ruleState
	ticker  *sim.Ticker
	enabled bool

	ticks     uint64
	decisions int
	history   []Decision
}

// New compiles cfg against the host's telemetry store and actuator and
// arms the decision ticker. The ticker draws no randomness and, while no
// rule acts, changes nothing observable — runs with an idle controller
// stay bit-identical to runs without one (the quarantine-watchdog
// argument, gated by make adapt-diff).
func New(eng *sim.Engine, store *obs.Store, act Actuator, cfg Config) (*Controller, error) {
	if store == nil {
		return nil, fmt.Errorf("adapt: controller needs a telemetry store (enable the sampler)")
	}
	period := cfg.Period
	if period <= 0 {
		period = DefaultPeriod
	}
	histCap := cfg.History
	if histCap <= 0 {
		histCap = 256
	}
	c := &Controller{eng: eng, store: store, act: act, period: period, histCap: histCap}
	for _, r := range cfg.Rules {
		if r.Name == "" {
			return nil, fmt.Errorf("adapt: every rule needs a name")
		}
		det, err := compileDetector(r.Detect, store, act)
		if err != nil {
			return nil, fmt.Errorf("adapt: rule %q: %w", r.Name, err)
		}
		var clearDet detector
		if r.ClearDetect != nil {
			clearDet, err = compileDetector(*r.ClearDetect, store, act)
			if err != nil {
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
		if r.Escalate != nil {
			if err := r.Escalate.validate(); err != nil {
				return nil, fmt.Errorf("adapt: rule %q escalate: %w", r.Name, err)
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
		c.rules = append(c.rules, &ruleState{spec: r, det: det, clearDet: clearDet})
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

// tick is one decision round: every rule's detector is evaluated, then
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
	v := rs.det.eval(now)
	if !v.noData {
		rs.firing = v.firing
		if v.firing {
			rs.streak++
			rs.quiet = 0
		} else {
			rs.streak = 0
		}
	}
	// Quiet evidence: the clear detector when the rule declares one, the
	// fire detector's own silence otherwise. Either way the fire signal
	// vetoes quiet, and a no-data tick freezes whichever streak the blind
	// detector feeds — absence of evidence is neither firing nor quiet
	// (the rollout no-data rule).
	clearEvidence := v
	if rs.clearDet == nil {
		if v.noData {
			return
		}
		if !v.firing {
			rs.quiet++
		}
	} else if q := rs.clearDet.eval(now); !q.noData {
		clearEvidence = q
		if q.firing || rs.firing {
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
		if !v.noData && rs.streak >= rs.spec.Sustain && !coolingDown && !rs.escalated {
			if c.apply(rs, rs.spec.OnFire, "fire", v, now) == nil {
				rs.engaged = true
			}
		}
	case rs.quiet >= rs.spec.ClearAfter && !coolingDown:
		// Converged and healthy again: revert (if declared) and reset
		// the escalation evidence. A failed revert keeps the rule
		// engaged and retries after the cooldown.
		if rs.spec.OnClear != nil && c.apply(rs, *rs.spec.OnClear, "clear", clearEvidence, now) != nil {
			return
		}
		rs.engaged = false
		rs.unconverged = 0
	case !v.noData && rs.streak >= rs.spec.Sustain && !coolingDown && !rs.escalated:
		// Still burning a full cooldown after acting: the reaction did
		// not converge. The applied action stays in place (swaps are
		// idempotent state, not pulses); count the evidence and
		// escalate once it piles EscalateAfter periods high.
		rs.unconverged++
		rs.lastAction, rs.acted = now, true
		if rs.spec.EscalateAfter > 0 && rs.spec.Escalate != nil && rs.unconverged >= rs.spec.EscalateAfter {
			c.apply(rs, *rs.spec.Escalate, "escalate", v, now)
			rs.escalated = true
		}
	}
}

// apply runs one action through the actuator and records the decision,
// rendering the detector evidence v only now that something reads it.
func (c *Controller) apply(rs *ruleState, a ActionSpec, event string, v verdict, now sim.Time) error {
	var err error
	switch a.Kind {
	case "swap":
		err = c.act.SwapPolicy(a.App, a.Hook, a.Policy, a.Defines)
	case "map_set":
		err = c.act.MapSet(a.App, a.Map, a.Key, a.Value)
	case "quarantine":
		err = c.act.Quarantine(a.App, a.Hook)
	default:
		err = fmt.Errorf("adapt: unknown action kind %q", a.Kind)
	}
	d := Decision{AtNS: int64(now), Rule: rs.spec.Name, Event: event, Action: a.String(), Detail: v.detail()}
	if err != nil {
		d.Err = err.Error()
	}
	rs.lastAction = now
	rs.acted = true
	c.decisions++
	c.history = append(c.history, d)
	if len(c.history) > c.histCap {
		c.history = append(c.history[:0], c.history[len(c.history)-c.histCap:]...)
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
			Rule:        rs.spec,
			Firing:      rs.firing,
			Engaged:     rs.engaged,
			Unconverged: rs.unconverged,
			Escalated:   rs.escalated,
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
