package syrupd

// Graceful degradation (§3.5's safety argument, carried to its
// operational conclusion): a policy that keeps faulting at runtime is
// worse than no policy, because every fault burns hook cost for a
// fall-open verdict. The quarantine watchdog samples each deployment's
// fault count on a fixed window; a deployment that accumulates
// quarantineThreshold or more faults inside one window is closed — the
// layer serves its kernel default (RSS, hash reuseport, CFS-idle enclave)
// — and stays listed as quarantined, barring the app from redeploying at
// that hook until an operator unquarantines it.

import (
	"fmt"

	"syrup/internal/sim"
	"syrup/internal/trace"
)

// The watchdog's tuning, calibrated in DESIGN.md "Calibration constants".
const (
	// quarantineWindow is the sampling period, in simulated time.
	quarantineWindow = 10 * sim.Millisecond
	// quarantineThreshold is the per-deployment fault count within one
	// window that triggers quarantine.
	quarantineThreshold = 10
)

// EnableQuarantine arms the fault watchdog; a second call is a no-op. The
// scan runs on the simulated clock, so runs with no faults stay
// bit-identical: a ticker that observes zero deltas changes nothing.
func (d *Daemon) EnableQuarantine() {
	if !d.watchdog {
		d.watchdog = true
		d.host.Eng.NewTicker(quarantineWindow, d.scanFaults)
	}
}

// scanFaults walks every live deployment in deterministic order and
// quarantines any whose fault count grew by at least quarantineThreshold
// since the last scan. A deployment's count only grows, so the baseline it
// keeps (AppLink.seen) starts at zero and never runs ahead of it.
func (d *Daemon) scanFaults() {
	for _, app := range d.appsByID() {
		for _, l := range app.links {
			_, f := l.att.stats()
			grew := f - l.seen
			l.seen = f
			if grew >= quarantineThreshold {
				d.quarantine(l, grew)
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
