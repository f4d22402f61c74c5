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
// the same syrupd ops an external collector uses (timeseries, links,
// adapt_history), merge the per-host series fleet-wide, and evaluate SLO
// objectives against the merged view. Members are independent
// simulations, so a scrape is a pure read — it schedules no events and
// perturbs nothing.

// HostSnapshot is one member's scraped telemetry.
type HostSnapshot struct {
	Host  string `json:"host"`
	Index int    `json:"index"`
	// NowNS is the member's sim clock at scrape time.
	NowNS  int64            `json:"now_ns"`
	Series []obs.SeriesJSON `json:"series"`
	// Links is the member's deployments (the links op), each with the
	// instructions its program executed and its per-slot hits.
	Links []syrupd.LinkInfo `json:"links,omitempty"`
	// Counters is the member's own counter list (Daemon.Counters): every
	// count its layers keep. Only the in-process scrape fills it.
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

// ScrapeHost pulls one host's telemetry through do, one control-protocol
// round trip: Server.Do in process, Client.Do over the host's socket. It
// reads the timeseries op, then links, then adapt_history, and fails only
// when the host has telemetry disabled.
func ScrapeHost(name string, index int, do func(*syrupd.Request) (*syrupd.Response, error)) (HostSnapshot, error) {
	ts, err := do(&syrupd.Request{Op: "timeseries"})
	if err != nil {
		return HostSnapshot{}, err
	}
	hs := HostSnapshot{Host: name, Index: index, NowNS: ts.NowNS, Series: ts.Series}
	if lr, err := do(&syrupd.Request{Op: "links"}); err == nil {
		hs.Links = lr.Links
	}
	// Hosts without adaptive control answer with an error; that just
	// leaves Decisions empty.
	if ah, err := do(&syrupd.Request{Op: "adapt_history"}); err == nil {
		hs.Decisions = ah.Decisions
	}
	return hs, nil
}

// NewFleetSnapshot builds the fleet view over host snapshots: the latest
// member clock and the merge of their series.
func NewFleetSnapshot(hosts []HostSnapshot) *FleetSnapshot {
	snap := &FleetSnapshot{Hosts: hosts}
	series := make([][]obs.SeriesJSON, len(hosts))
	for i, hs := range hosts {
		series[i] = hs.Series
		snap.NowNS = max(snap.NowNS, hs.NowNS)
	}
	snap.Merged = obs.MergeSeries(series...)
	return snap
}

// Scrape pulls telemetry and counters from every member in process and
// merges it fleet-wide. Members without telemetry are skipped; scraping a
// fleet with none enabled is an error (enable it via HostConfig.Telemetry).
func (c *Cluster) Scrape() (*FleetSnapshot, error) {
	var hosts []HostSnapshot
	for _, m := range c.Members {
		hs, err := ScrapeHost(m.Name, m.Index, syrupd.NewServer(m.Host.Daemon).Do)
		if err != nil {
			continue
		}
		hs.Counters = m.Host.Daemon.Counters()
		hosts = append(hosts, hs)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("cluster: no member has telemetry enabled (set HostConfig.Telemetry)")
	}
	return NewFleetSnapshot(hosts), nil
}

// EvaluateSLOs runs the objectives against the merged fleet series as of
// the snapshot's clock and records the results on the snapshot.
func (s *FleetSnapshot) EvaluateSLOs(slos []obs.SLO) []obs.SLOResult {
	s.SLOs = obs.EvaluateSLOs(slos, s.Merged, sim.Time(s.NowNS))
	return s.SLOs
}
