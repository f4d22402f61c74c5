package experiments

// Chaos runs: the same fig-style RocksDB workload executed twice on the
// same seed — once clean, once under a fault-injection plan with the
// quarantine watchdog armed — and a degradation report comparing the two.
// This is the correctness half of the fault work: the chaotic run must
// degrade (drops, fall-open verdicts, maybe a quarantine), never wedge.

import (
	"fmt"
	"strings"

	"syrup"
	"syrup/internal/faults"
	"syrup/internal/workload"
)

// ChaosConfig parameterizes one clean-vs-chaos comparison (the `-faults`
// mode of syrup-bench).
type ChaosConfig struct {
	Seed    uint64
	Load    float64 // offered RPS
	ScanPct float64
	Policy  SocketPolicy
	// Plan is the fault plan for the chaotic run (required).
	Plan *faults.Plan
	Run  RunConfig
}

// DefaultChaosPlan is a representative mixed plan: sporadic NIC ring and
// SKB allocation losses, a burst of socket-select hook faults early in
// the measure window (enough to trip the default watchdog), and
// occasional ghOSt-style commit drops.
func DefaultChaosPlan() *faults.Plan {
	p, err := faults.ParsePlan(
		"site=nic-ring prob=0.001\n" +
			"site=skb-alloc prob=0.001\n" +
			"site=socket-select every=2 from=250ms until=320ms\n" +
			"site=ghost-commit prob=0.01\n")
	if err != nil {
		panic(err) // static plan
	}
	return p
}

// ChaosRun pairs the clean and chaotic executions of one point.
type ChaosRun struct {
	Plan         *faults.Plan
	Clean, Chaos *workload.Result
	// CleanHost/ChaosHost expose per-layer stats for the report.
	CleanHost, ChaosHost *syrup.Host
}

// RunChaos executes the point clean, then again under the plan with the
// watchdog armed. Both runs use the same seed, so every divergence is
// attributable to the injected faults.
func RunChaos(cfg ChaosConfig) *ChaosRun {
	if cfg.Plan == nil {
		cfg.Plan = DefaultChaosPlan()
	}
	base := scanPoint(cfg.Seed, cfg.Load, cfg.ScanPct, cfg.Policy, cfg.Run)
	clean := runRocksPoint(base)

	chaotic := base
	chaotic.Faults = cfg.Plan
	chaos := runRocksPoint(chaotic)

	return &ChaosRun{
		Plan: cfg.Plan, Clean: clean.Result, Chaos: chaos.Result,
		CleanHost: clean.Host, ChaosHost: chaos.Host,
	}
}

// Format renders the degradation table: client-observed goodput and
// latency side by side, every host counter the injected chaos moved (the
// rows of Daemon.Counters that differ between the two hosts), and the
// plan's per-site injection counts.
func (cr *ChaosRun) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== chaos: goodput degradation vs clean run ==\n\n")
	fmt.Fprintf(&b, "plan:\n")
	for _, line := range strings.Split(strings.TrimSpace(cr.Plan.String()), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}

	cl, ch := cr.Clean.All, cr.Chaos.All
	clLat, chLat := cl.Latency.Summarize(), ch.Latency.Summarize()
	fmt.Fprintf(&b, "\n%-18s%14s%14s%14s\n", "metric", "clean", "chaos", "delta")
	num := func(name string, a, c float64, unit string) {
		delta := "-"
		if a != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(c-a)/a)
		}
		fmt.Fprintf(&b, "%-18s%14.1f%14.1f%14s  %s\n", name, a, c, delta, unit)
	}
	num("goodput", cl.ThroughputRPS(), ch.ThroughputRPS(), "rps")
	num("completed", float64(cl.Completed), float64(ch.Completed), "reqs")
	num("p50 latency", float64(clLat.P50)/1e3, float64(chLat.P50)/1e3, "us")
	num("p99 latency", float64(clLat.P99)/1e3, float64(chLat.P99)/1e3, "us")
	num("dropped", float64(cl.TotalDrops()), float64(ch.TotalDrops()), "reqs")

	clean := map[string]uint64{}
	for _, c := range cr.CleanHost.Daemon.Counters() {
		clean[c.Name] = c.Value
	}
	fmt.Fprintf(&b, "\n%-40s%14s%14s\n", "host counter", "clean", "chaos")
	for _, c := range cr.ChaosHost.Daemon.Counters() {
		if clean[c.Name] != c.Value {
			fmt.Fprintf(&b, "%-40s%14d%14d\n", c.Name, clean[c.Name], c.Value)
		}
	}

	if inj := cr.ChaosHost.Faults; inj != nil {
		fmt.Fprintf(&b, "\ninjected faults (%d total):\n", inj.Total())
		for _, site := range inj.Planned() {
			fmt.Fprintf(&b, "  %-16s%8d\n", site, inj.Injected(site))
		}
	}
	return b.String()
}
