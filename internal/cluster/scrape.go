package cluster

import (
	"fmt"

	"syrup/internal/adapt"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

// The control plane's scrape loop: pull every member's telemetry through
// the same syrupd ops an external collector would use (timeseries +
// profile), merge the per-host series fleet-wide, and evaluate SLO
// objectives against the merged view. Members are independent
// simulations, so a scrape is a pure read — it schedules no events and
// perturbs nothing.

// HostSnapshot is one member's scraped telemetry.
type HostSnapshot struct {
	Host  string `json:"host"`
	Index int    `json:"index"`
	// NowNS is the member's sim clock at scrape time.
	NowNS    int64                `json:"now_ns"`
	Series   []obs.SeriesJSON     `json:"series"`
	Profiles []syrupd.ProfileInfo `json:"profiles,omitempty"`
	// Counters is the member's own counter listing (Daemon.Counters):
	// per-host hook runs and faults, quarantines.
	Counters []metrics.CounterValue `json:"counters,omitempty"`
	// Decisions is the host controller's decision history when adaptive
	// control is enabled (syrup-top renders them as annotations).
	Decisions []adapt.Decision `json:"decisions,omitempty"`
}

// FleetSnapshot is one scrape of the whole fleet: per-host series plus
// the fleet-wide merge (additive series summed, percentile series
// max-reduced — see obs.MergeSeries). It is the wire format syrup-top
// renders, live or from a recorded file.
type FleetSnapshot struct {
	// NowNS is the maximum member clock (members run the same virtual
	// window, so clocks agree after a fleet run).
	NowNS  int64            `json:"now_ns"`
	Hosts  []HostSnapshot   `json:"hosts"`
	Merged []obs.SeriesJSON `json:"merged"`
	// SLOs carries objective evaluations when the scraper was asked for
	// them (EvaluateSLOs fills it).
	SLOs []obs.SLOResult `json:"slos,omitempty"`
}

// scrapeMember pulls one member's telemetry, policy profiles and counters
// through its control-protocol handler (the in-process equivalent of
// dialing its syrupd socket). ok is false when the member has telemetry
// disabled.
func scrapeMember(m *Member) (HostSnapshot, bool) {
	srv := syrupd.NewServer(m.Host.Daemon)
	resp := srv.Handle(&syrupd.Request{Op: "timeseries"})
	if !resp.OK {
		return HostSnapshot{}, false
	}
	hs := HostSnapshot{Host: m.Name, Index: m.Index, NowNS: resp.NowNS, Series: resp.Series}
	if pr := srv.Handle(&syrupd.Request{Op: "profile"}); pr.OK {
		hs.Profiles = pr.Profiles
	}
	hs.Counters = m.Host.Daemon.Counters()
	// Hosts without adaptive control answer with an error; that just
	// leaves Decisions empty.
	if ah := srv.Handle(&syrupd.Request{Op: "adapt_history"}); ah.OK {
		hs.Decisions = ah.Decisions
	}
	return hs, true
}

// Scrape pulls telemetry from every member and merges it fleet-wide.
// Members without telemetry are skipped; scraping a fleet with none
// enabled is an error (enable it via HostConfig.Telemetry).
func (c *Cluster) Scrape() (*FleetSnapshot, error) {
	snap := &FleetSnapshot{}
	for _, m := range c.Members {
		hs, ok := scrapeMember(m)
		if !ok {
			continue
		}
		snap.Hosts = append(snap.Hosts, hs)
		if hs.NowNS > snap.NowNS {
			snap.NowNS = hs.NowNS
		}
	}
	if len(snap.Hosts) == 0 {
		return nil, fmt.Errorf("cluster: no member has telemetry enabled (set HostConfig.Telemetry)")
	}
	series := make([][]obs.SeriesJSON, len(snap.Hosts))
	for i, hs := range snap.Hosts {
		series[i] = hs.Series
	}
	snap.Merged = obs.MergeSeries(series...)
	return snap, nil
}

// EvaluateSLOs runs the objectives against the merged fleet series as of
// the snapshot's clock and records the results on the snapshot.
func (s *FleetSnapshot) EvaluateSLOs(slos []obs.SLO) []obs.SLOResult {
	s.SLOs = obs.EvaluateSLOs(slos, s.Merged, sim.Time(s.NowNS))
	return s.SLOs
}
