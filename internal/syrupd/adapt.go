package syrupd

// Closed-loop adaptation (ROADMAP item 4): the daemon can host an
// internal/adapt controller that watches its own telemetry store and
// reacts through the same entry points operators use — DeployBuiltin for
// hot swaps, map writes for re-steering, Quarantine for escalation. The
// controller ticks on the simulated clock and draws no randomness, so a
// host whose rules never fire is bit-identical to one without a
// controller (gated by make adapt-diff).

import (
	"fmt"

	"syrup/internal/adapt"
)

// daemonActuator adapts the Daemon onto adapt.Actuator. It acts with the
// daemon's own authority: policy swaps go through the full
// compile/verify/deploy path (so a broken built-in cannot slip past the
// verifier just because a controller asked for it), and map writes reach
// the app's maps directly rather than through the pin-permission check —
// the controller is part of syrupd, not a tenant.
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

func (a daemonActuator) Quarantine(app uint32, hk string) error {
	h, err := ParseHook(hk)
	if err != nil {
		return err
	}
	return a.d.Quarantine(app, h)
}

func (a daemonActuator) MapSet(app uint32, name string, key uint32, value uint64) error {
	ap, ok := a.d.apps[app]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", app)
	}
	m, ok := ap.maps[name]
	if !ok {
		return fmt.Errorf("syrupd: app %d has no map %q", app, name)
	}
	return m.UpdateUint64(key, value)
}

func (a daemonActuator) Faults(app uint32, hk string) uint64 {
	ap, ok := a.d.apps[app]
	if !ok {
		return 0
	}
	var total uint64
	for _, al := range ap.links {
		if string(al.Hook) == hk {
			total += al.Faults()
		}
	}
	return total
}

// EnableAdapt arms (or replaces) the daemon's adaptive controller with
// the given rule table. The host must run the telemetry sampler (SetObs)
// first — the controller's detectors read the sampled series.
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
