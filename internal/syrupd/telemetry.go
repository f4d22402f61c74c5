package syrupd

import (
	"syrup/internal/adapt"
	"syrup/internal/metrics"
	"syrup/internal/obs"
)

// The daemon's half of the telemetry plane: the one read of the host the
// snapshot op serves, and the live gauges the sampler reads.

// HostSnapshot is everything one host publishes, read at one instant: the
// snapshot op's reply and, tagged with its name, one host of a fleet
// scrape (cluster.FleetSnapshot). A client wanting rates or deltas diffs
// two snapshots by NowNS.
type HostSnapshot struct {
	// Host and Index name the host within a fleet; the scraper fills them,
	// the daemon does not know them.
	Host  string `json:"host"`
	Index int    `json:"index"`
	// NowNS is the host's sim clock at the read.
	NowNS int64 `json:"now_ns"`
	// Series is every telemetry series, name-sorted. It is nil (null on
	// the wire) when the host runs no sampler.
	Series []obs.SeriesJSON `json:"series"`
	// Links is the host's deployments (Daemon.Links), each with the
	// instructions its program executed and its per-slot hits.
	Links []LinkInfo `json:"links,omitempty"`
	// Counters is the host's one counter list (Daemon.Counters).
	Counters []metrics.CounterValue `json:"counters,omitempty"`
	// Adapt, Rules and Decisions are the adaptive controller's status,
	// rule states and decision history, once one has been enabled; they
	// stay readable after adapt_disable.
	Adapt     *adapt.Status      `json:"adapt,omitempty"`
	Rules     []adapt.RuleStatus `json:"rules,omitempty"`
	Decisions []adapt.Decision   `json:"decisions,omitempty"`
}

// snapshot reads the host for the snapshot op.
func (d *Daemon) snapshot() *HostSnapshot {
	hs := &HostSnapshot{NowNS: int64(d.host.Eng.Now()), Links: d.Links(), Counters: d.Counters()}
	if st := d.host.Obs.Store(); st != nil {
		hs.Series = st.Snapshot()
	}
	if c := d.adapt; c != nil {
		st := c.Status()
		hs.Adapt, hs.Rules, hs.Decisions = &st, c.Rules(), c.History()
	}
	return hs
}

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
