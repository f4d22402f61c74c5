package syrupd

import "syrup/internal/sim"

// The daemon's half of the telemetry plane: it serves the host's sampler
// (hook.Host.Obs) to the ops and the live gauges the sampler reads.

// Now reports the host's sim clock — the timestamp stats/metrics replies
// carry so repeated delta snapshots normalize into true rates.
func (d *Daemon) Now() sim.Time { return d.host.Eng.Now() }

// QuarantinedCount reports how many (app, hook) deployments the watchdog
// currently holds quarantined — a live gauge for the sampler.
func (d *Daemon) QuarantinedCount() int {
	n := 0
	for _, app := range d.apps {
		n += len(app.quarantined)
	}
	return n
}

// GhostRunnable sums the runnable ghOSt threads across every app's agent
// — a live gauge for the sampler.
func (d *Daemon) GhostRunnable() int {
	n := 0
	for _, app := range d.apps {
		if app.agent != nil {
			n += app.agent.Runnable()
		}
	}
	return n
}
