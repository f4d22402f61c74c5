package syrupd

// Closed-loop adaptation: the daemon can host an internal/adapt
// controller that watches its own telemetry store and reacts through the
// entry point operators use — DeployBuiltin for hot swaps. The controller
// ticks on the simulated clock and draws no randomness, so a host whose
// rules never fire is bit-identical to one without a controller (gated by
// make adapt-diff).

import (
	"fmt"

	"syrup/internal/adapt"
)

// daemonActuator adapts the Daemon onto adapt.Actuator. Policy swaps go
// through the full compile/verify/deploy path, so a broken built-in cannot
// slip past the verifier just because a controller asked for it.
type daemonActuator struct {
	d *Daemon
}

func (a daemonActuator) SwapPolicy(app uint32, hk string, pol string, defines map[string]int64) error {
	h, err := ParseHook(hk)
	if err != nil {
		return err
	}
	_, err = a.d.DeployBuiltin(app, h, pol, defines)
	return err
}

// EnableAdapt arms (or replaces) the daemon's adaptive controller with
// the given rule table. The host must run the telemetry sampler (SetObs)
// first — the controller's rules read the sampled series.
func (d *Daemon) EnableAdapt(cfg adapt.Config) (*adapt.Controller, error) {
	if d.sampler == nil {
		return nil, fmt.Errorf("syrupd: adaptive control needs telemetry (SetObs first)")
	}
	c, err := adapt.New(d.eng, d.sampler.Store(), daemonActuator{d: d}, cfg)
	if err != nil {
		return nil, err
	}
	if d.adapt != nil {
		d.adapt.Stop()
	}
	d.adapt = c
	return c, nil
}

// DisableAdapt disarms the controller; its decision history stays
// readable through AdaptController until the next EnableAdapt.
func (d *Daemon) DisableAdapt() {
	if d.adapt != nil {
		d.adapt.Stop()
	}
}

// AdaptController returns the daemon's controller, or nil.
func (d *Daemon) AdaptController() *adapt.Controller { return d.adapt }
