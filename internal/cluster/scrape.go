package cluster

import (
	"fmt"

	"syrup/internal/obs"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

// The control plane's scrape loop: pull every member's snapshot through
// the same syrupd op an external collector uses, merge the per-host series
// fleet-wide, and evaluate SLO objectives against the merged view. Members
// are independent simulations, so a scrape is a pure read — it schedules
// no events and perturbs nothing.

// FleetSnapshot is one scrape of the whole fleet: per-host snapshots plus
// the fleet-wide merge of their series (additive series summed,
// percentile series max-reduced — see obs.MergeSeries). It is the wire
// format syrup-top renders, live or from a recorded file.
type FleetSnapshot struct {
	// NowNS is the maximum member clock (members run the same virtual
	// window, so clocks agree after a fleet run).
	NowNS  int64                 `json:"now_ns"`
	Hosts  []syrupd.HostSnapshot `json:"hosts"`
	Merged []obs.SeriesJSON      `json:"merged"`
	// SLOs carries objective evaluations when the scraper was asked for
	// them (EvaluateSLOs fills it).
	SLOs []obs.SLOResult `json:"slos,omitempty"`
}

// ScrapeHost pulls one host's snapshot through do, one control-protocol
// round trip: Server.Handle or Server.Do in process, Client.Do over the
// host's socket. It names the snapshot and fails when it has no telemetry.
func ScrapeHost(name string, index int, do func(*syrupd.Request) (*syrupd.Response, error)) (syrupd.HostSnapshot, error) {
	resp, err := do(&syrupd.Request{Op: "snapshot"})
	if err != nil {
		return syrupd.HostSnapshot{}, err
	}
	if resp.Snapshot == nil || resp.Snapshot.Series == nil {
		return syrupd.HostSnapshot{}, fmt.Errorf("cluster: %s has telemetry disabled", name)
	}
	hs := *resp.Snapshot
	hs.Host, hs.Index = name, index
	return hs, nil
}

// NewFleetSnapshot builds the fleet view over host snapshots: the latest
// member clock and the merge of their series.
func NewFleetSnapshot(hosts []syrupd.HostSnapshot) *FleetSnapshot {
	snap := &FleetSnapshot{Hosts: hosts}
	series := make([][]obs.SeriesJSON, len(hosts))
	for i, hs := range hosts {
		series[i] = hs.Series
		snap.NowNS = max(snap.NowNS, hs.NowNS)
	}
	snap.Merged = obs.MergeSeries(series...)
	return snap
}

// Scrape pulls every member's snapshot in process and merges the series
// fleet-wide. Members without telemetry are skipped; scraping a
// fleet with none enabled is an error (enable it via HostConfig.Telemetry).
func (c *Cluster) Scrape() (*FleetSnapshot, error) {
	var hosts []syrupd.HostSnapshot
	for _, m := range c.Members {
		hs, err := ScrapeHost(m.Name, m.Index, func(req *syrupd.Request) (*syrupd.Response, error) {
			resp := syrupd.NewServer(m.Host.Daemon).Handle(req) // the caller owns the fleet: no loop serves it
			return &resp, nil
		})
		if err != nil {
			continue
		}
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
