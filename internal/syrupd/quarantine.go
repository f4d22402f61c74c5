package syrupd

// Graceful degradation (§3.5's safety argument, carried to its
// operational conclusion): a policy that keeps faulting at runtime is
// worse than no policy, because every fault burns hook cost for a
// fall-open verdict. The quarantine watchdog samples each deployment's
// fault count on a fixed window; a deployment that accumulates Threshold
// or more faults inside one window is closed — the layer serves its
// kernel default (RSS, hash reuseport, CFS-idle enclave) — and stays
// listed as quarantined, barring the app from redeploying at that hook
// until an operator unquarantines it.

import (
	"fmt"

	"syrup/internal/sim"
	"syrup/internal/trace"
)

// QuarantineConfig tunes the watchdog.
type QuarantineConfig struct {
	// Window is the sampling period (default 10ms of simulated time).
	Window sim.Time
	// Threshold is the per-deployment fault count within one window that
	// triggers quarantine (default 10).
	Threshold uint64
}

func (c *QuarantineConfig) fill() {
	if c.Window == 0 {
		c.Window = 10 * sim.Millisecond
	}
	if c.Threshold == 0 {
		c.Threshold = 10
	}
}

// watchdog is the armed quarantine scanner.
type watchdog struct {
	d      *Daemon
	cfg    QuarantineConfig
	ticker *sim.Ticker
}

// EnableQuarantine arms (or re-arms with a new config) the fault
// watchdog. The scan runs on the simulated clock, so runs with no faults
// stay bit-identical: a ticker that observes zero deltas changes nothing.
func (d *Daemon) EnableQuarantine(cfg QuarantineConfig) {
	cfg.fill()
	if d.watchdog != nil {
		d.watchdog.ticker.Stop()
	}
	w := &watchdog{d: d, cfg: cfg}
	w.ticker = d.host.Eng.NewTicker(cfg.Window, w.scan)
	d.watchdog = w
}

// scan walks every live deployment in deterministic order and
// quarantines any whose fault count grew by at least Threshold since the
// last scan. A deployment's count only grows, so the baseline it keeps
// (AppLink.seen) starts at zero and never runs ahead of it.
func (w *watchdog) scan() {
	for _, app := range w.d.appsByID() {
		for _, l := range app.links {
			_, f := l.att.stats()
			grew := f - l.seen
			l.seen = f
			if grew >= w.cfg.Threshold {
				w.d.quarantine(l, grew)
			}
		}
	}
}

// quarantine is the watchdog's teardown: close the deployment, keep it
// listed as quarantined (which bars redeploys at its hook), count, and
// mark the trace.
func (d *Daemon) quarantine(l *AppLink, faultsInWindow uint64) {
	l.Close()
	l.app.quarantined[l.Hook] = l
	d.quarantines++
	if tr := d.host.Tracer; tr.Enabled() {
		// Error-tagged instant span: the operator's trace shows exactly
		// when and where the policy was pulled (Executor carries the
		// window's fault count).
		now := d.host.Eng.Now()
		tr.Record(trace.Span{
			Start: now, End: now, Stage: trace.StageHook,
			Hook: l.att.target(), Policy: l.att.label(),
			Verdict: trace.VerdictFault, Err: true, Instant: true,
			Executor: uint32(faultsInWindow),
		})
	}
}

// Unquarantine re-arms a quarantined app at hk: the operator judged the
// policy (or its environment) fixed, so deploys there are allowed again.
// Nothing reattaches automatically — the app redeploys on its own.
func (d *Daemon) Unquarantine(appID uint32, hk Hook) error {
	app, ok := d.apps[appID]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", appID)
	}
	if app.quarantined[hk] == nil {
		return fmt.Errorf("syrupd: app %d is not quarantined at %s", appID, hk)
	}
	delete(app.quarantined, hk)
	return nil
}
