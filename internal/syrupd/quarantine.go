package syrupd

// Graceful degradation (§3.5's safety argument, carried to its
// operational conclusion): a policy that keeps faulting at runtime is
// worse than no policy, because every fault burns hook cost for a
// fall-open verdict. The quarantine watchdog samples each deployment's
// fault counters on a fixed window; a link that accumulates Threshold or
// more faults inside one window is detached — the layer serves its
// kernel default (RSS, hash reuseport, CFS-idle enclave) — and the app
// is barred from redeploying at that hook until an operator
// unquarantines it.

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
	// last holds each deployment's fault counter at the previous scan.
	last map[*AppLink]uint64
}

// EnableQuarantine arms (or re-arms with a new config) the fault
// watchdog. The scan runs on the simulated clock, so runs with no faults
// stay bit-identical: a ticker that observes zero deltas changes nothing.
func (d *Daemon) EnableQuarantine(cfg QuarantineConfig) {
	cfg.fill()
	if d.watchdog != nil {
		d.watchdog.ticker.Stop()
	}
	w := &watchdog{d: d, cfg: cfg, last: make(map[*AppLink]uint64)}
	w.ticker = d.eng.NewTicker(cfg.Window, w.scan)
	d.watchdog = w
}

// scan walks every deployment in deterministic order and quarantines any
// whose fault counter grew by at least Threshold since the last scan.
func (w *watchdog) scan() {
	for _, app := range w.d.appsByID() {
		for _, al := range app.links {
			f := al.Faults()
			last := w.last[al]
			if f < last {
				// The link was replaced (revoke + redeploy resets a direct
				// link's stats); restart the window from zero.
				last = 0
			}
			w.last[al] = f
			if app.quarantined[al.Hook] {
				continue
			}
			if f-last >= w.cfg.Threshold {
				w.d.quarantineHook(app, al.Hook, al.Target, al.Label(), f-last)
			}
		}
	}
}

// quarantineHook is the watchdog's quarantine path: detach every
// deployment at hk, bar redeploys, count, and mark the trace.
func (d *Daemon) quarantineHook(app *App, hk Hook, target, label string, faultsInWindow uint64) {
	for _, l := range app.links {
		if l.Hook == hk {
			l.detach()
		}
	}
	app.quarantined[hk] = true
	d.quarantines++
	if d.tracer.Enabled() {
		// Error-tagged instant span: the operator's trace shows exactly
		// when and where the policy was pulled (Executor carries the
		// window's fault count).
		now := d.eng.Now()
		d.tracer.Record(trace.Span{
			Start: now, End: now, Stage: trace.StageHook,
			Hook: target, Policy: label,
			Verdict: trace.VerdictFault, Err: true, Instant: true,
			Executor: uint32(faultsInWindow),
		})
	}
}

// Quarantines reports how many times this daemon's watchdog has
// quarantined a hook (the stats op's syrupd_quarantines).
func (d *Daemon) Quarantines() uint64 { return d.quarantines }

// Unquarantine re-arms a quarantined app at hk: the operator judged the
// policy (or its environment) fixed, so deploys there are allowed again.
// Nothing reattaches automatically — the app redeploys on its own.
func (d *Daemon) Unquarantine(appID uint32, hk Hook) error {
	app, ok := d.apps[appID]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", appID)
	}
	if !app.quarantined[hk] {
		return fmt.Errorf("syrupd: app %d is not quarantined at %s", appID, hk)
	}
	delete(app.quarantined, hk)
	// Reset the watchdog baseline so faults from before the quarantine
	// don't instantly re-trip it.
	if d.watchdog != nil {
		for _, al := range app.links {
			if al.Hook == hk {
				d.watchdog.last[al] = al.Faults()
			}
		}
	}
	return nil
}
