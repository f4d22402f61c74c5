package cluster

import (
	"encoding/json"
	"slices"
	"testing"

	"syrup"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// newObsCluster builds a telemetry-enabled test cluster and registers a
// per-member synthetic gauge pair: test_value (additive; index+1) and
// test_p99_us (percentile-named; 100*(index+1)) so the merge rules are
// observable.
func newObsCluster(t *testing.T, hosts int) *Cluster {
	t.Helper()
	c := newTestCluster(t, hosts, func(i int, cfg *syrup.HostConfig) {
		cfg.Telemetry = &obs.Config{}
	})
	for _, m := range c.Members {
		idx := m.Index
		m.Host.Obs.Gauge("test_value", func() float64 { return float64(idx + 1) })
		m.Host.Obs.Gauge("test_p99_us", func() float64 { return float64(100 * (idx + 1)) })
	}
	return c
}

// TestScrapeMergesFleet: the control plane pulls every member's series
// through the syrupd timeseries op and merges them — additive series sum,
// percentile series take the max.
func TestScrapeMergesFleet(t *testing.T) {
	c := newObsCluster(t, 3)
	c.RunAll(1, func(m *Member) { m.Host.RunFor(5 * sim.Millisecond) })

	snap, err := c.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Hosts) != 3 {
		t.Fatalf("scraped %d hosts, want 3", len(snap.Hosts))
	}
	if snap.NowNS != int64(5*sim.Millisecond) {
		t.Fatalf("fleet clock = %d, want %d", snap.NowNS, 5*sim.Millisecond)
	}
	find := func(name string) obs.SeriesJSON {
		t.Helper()
		for _, s := range snap.Merged {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("merged snapshot missing %q", name)
		return obs.SeriesJSON{}
	}
	if _, v, ok := obs.LastPoint(find("test_value")); !ok || v != 6 {
		t.Fatalf("merged test_value = %v, want sum 6", v)
	}
	if _, v, ok := obs.LastPoint(find("test_p99_us")); !ok || v != 300 {
		t.Fatalf("merged test_p99_us = %v, want max 300", v)
	}
	// The base host gauges wired by TryNewHost are present per host.
	for _, name := range []string{"softirq_backlog", "nic_inflight", "ghost_runnable", "quarantined_links"} {
		find(name)
	}

	// The snapshot round-trips through JSON (syrup-top's recorded-file
	// format).
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back FleetSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Hosts) != 3 || back.NowNS != snap.NowNS {
		t.Fatalf("snapshot did not round-trip: %+v", back)
	}
}

// TestScrapeRequiresTelemetry: a fleet with telemetry disabled cannot be
// scraped.
func TestScrapeRequiresTelemetry(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	if _, err := c.Scrape(); err == nil {
		t.Fatal("scrape of telemetry-less fleet succeeded")
	}
}

// TestScrapeIncludesLinks: with no option beyond telemetry, the scrape
// carries each host's deployments with their run counts, instructions
// executed and per-slot hits for syrup-top's hot-policy table. The canary
// runs the policy on its bake's probes; the test sends the other host its
// traffic over the same window.
func TestScrapeIncludesLinks(t *testing.T) {
	c := newObsCluster(t, 2)
	rep, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin, Defines: twoSockets,
	})
	if err != nil || rep.Aborted {
		t.Fatalf("rollout failed: %v %+v", err, rep)
	}
	for _, m := range c.Members {
		if !slices.Contains(rep.Canaries, m.Index) {
			m.Host.NIC.Receive(probePacket(m, 1, testPort))
			m.Host.RunFor(bake)
		}
	}
	snap, err := c.Scrape()
	if err != nil {
		t.Fatal(err)
	}
	for _, hs := range snap.Hosts {
		if len(hs.Links) != 1 {
			t.Fatalf("%s: %d links, want 1", hs.Host, len(hs.Links))
		}
		l := hs.Links[0]
		var hits uint64
		for _, h := range l.Hits {
			hits += h
		}
		if l.Runs == 0 || l.Insns == 0 || hits != l.Insns {
			t.Fatalf("%s: link %+v: runs %d, insns %d, hits sum %d (probes should have run the policy)", hs.Host, l, l.Runs, l.Insns, hits)
		}
	}
}

// TestScrapeCountersPerHost is the fleet attribution gate: each member's
// HostSnapshot carries that member's own counters. A 2000-flow pool is
// steered through the Maglev table, every flow sends one datagram to its
// owner, and the hosts run at -workers 1 and 4: per-host counters differ
// across hosts (Maglev shares are unequal), match each host's own links,
// and sum to the pool size, and the whole snapshot — series, links with
// their hits, counters — is byte-identical across worker counts.
func TestScrapeCountersPerHost(t *testing.T) {
	const flows, runsKey = 2000, "ebpf_hook_runs_socket_select_9000"
	run := func(workers int) *FleetSnapshot {
		c := newObsCluster(t, 4)
		share := c.Split(workload.Config{Rate: 1, Flows: flows})
		c.RunAll(workers, func(m *Member) {
			if _, err := m.Host.Daemon.DeployPolicy(testApp, syrup.HookSocketSelect, "r0 = 1\nexit\n", nil); err != nil {
				t.Error(err)
				return
			}
			for i, f := range share[m.Index].FlowSet {
				p := probePacket(m, uint64(i), testPort)
				p.SrcIP, p.SrcPort = f.IP(), f.Port
				m.Host.NIC.Receive(p)
			}
			m.Host.RunFor(5 * sim.Millisecond)
		})
		snap, err := c.Scrape()
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		distinct := map[uint64]bool{}
		for i, hs := range snap.Hosts {
			runs := uint64(0)
			for _, cv := range hs.Counters {
				if cv.Name == runsKey {
					runs = cv.Value
				}
			}
			links := c.Members[i].Host.Daemon.Links()
			if runs != uint64(len(share[i].FlowSet)) || len(links) != 1 || links[0].Runs != runs {
				t.Fatalf("workers=%d %s: %s = %d, links %+v, want %d (its flow share)",
					workers, hs.Host, runsKey, runs, links, len(share[i].FlowSet))
			}
			total += runs
			distinct[runs] = true
		}
		if total != flows || len(distinct) < 2 {
			t.Fatalf("workers=%d: per-host runs sum to %d over %d distinct values, want %d over >= 2", workers, total, len(distinct), flows)
		}
		return snap
	}
	one, four := run(1), run(4)
	blob, err := json.Marshal(one)
	if err != nil {
		t.Fatal(err)
	}
	if blob4, err := json.Marshal(four); err != nil || string(blob4) != string(blob) {
		t.Fatalf("snapshot differs across worker counts (err %v):\n%s\n%s", err, blob, blob4)
	}

	// The counters round-trip through the recorded-file format.
	var back FleetSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for i := range one.Hosts {
		if !slices.Equal(back.Hosts[i].Counters, one.Hosts[i].Counters) {
			t.Fatalf("%s: counters did not round-trip: %v", one.Hosts[i].Host, back.Hosts[i].Counters)
		}
	}
}
