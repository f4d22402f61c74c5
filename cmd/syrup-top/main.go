// Command syrup-top renders a fleet's telemetry as a top(1)-style text
// dashboard: one row per host (RPS, latency percentiles, drop rate,
// quarantined deployments, an RPS sparkline), the fleet-merged totals,
// SLO burn-rate state, the top-K hottest deployed policies by profiled
// wall time, and — when a host runs the adapt controller — its decision
// log as per-host annotations.
//
// Live mode scrapes syrupd control sockets through the timeseries and
// profile ops:
//
//	syrup-top -sockets /tmp/h0.sock,/tmp/h1.sock,/tmp/h2.sock,/tmp/h3.sock
//
// Recorded mode renders a cluster.FleetSnapshot JSON file (written by
// -record, or by any embedding of the cluster scraper):
//
//	syrup-top -snapshot fleet.json
//
// SLO objectives are declared as name:series[/denom]:target:budget, e.g.
//
//	syrup-top -snapshot fleet.json -slo ls_p99:latency_LS_p99_us:500:0.1 \
//	    -slo drops:drop_rate/rps:0.01:0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"syrup/internal/cluster"
	"syrup/internal/obs"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "syrup-top:", err)
		os.Exit(1)
	}
}

// sloFlags collects repeated -slo values.
type sloFlags []obs.SLO

func (s *sloFlags) String() string { return fmt.Sprintf("%d objectives", len(*s)) }

// Set parses name:series[/denom]:target:budget.
func (s *sloFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 4 {
		return fmt.Errorf("want name:series[/denom]:target:budget, got %q", v)
	}
	o := obs.SLO{Name: parts[0], Series: parts[1]}
	if num, den, ok := strings.Cut(parts[1], "/"); ok {
		o.Series, o.Denom = num, den
	}
	var err error
	if o.Target, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return fmt.Errorf("bad target in %q: %v", v, err)
	}
	if o.Budget, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return fmt.Errorf("bad budget in %q: %v", v, err)
	}
	*s = append(*s, o)
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("syrup-top", flag.ContinueOnError)
	sockets := fs.String("sockets", "", "comma-separated syrupd control sockets to scrape live")
	snapshot := fs.String("snapshot", "", "recorded FleetSnapshot JSON file to render instead of scraping")
	record := fs.String("record", "", "write the scraped snapshot to this file (live mode)")
	topK := fs.Int("k", 5, "hot-policy rows to show")
	sparkW := fs.Int("spark", 24, "sparkline width in samples")
	sloShort := fs.Int("slo-short-ms", 5, "short burn-rate window (virtual ms)")
	sloLong := fs.Int("slo-long-ms", 25, "long burn-rate window (virtual ms)")
	var slos sloFlags
	fs.Var(&slos, "slo", "SLO objective name:series[/denom]:target:budget (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for i := range slos {
		slos[i].Short = sim.Time(*sloShort) * sim.Millisecond
		slos[i].Long = sim.Time(*sloLong) * sim.Millisecond
		if err := slos[i].Validate(); err != nil {
			return fmt.Errorf("-slo: %v", err)
		}
	}

	var snap *cluster.FleetSnapshot
	switch {
	case *snapshot != "":
		blob, err := os.ReadFile(*snapshot)
		if err != nil {
			return err
		}
		snap = &cluster.FleetSnapshot{}
		if err := json.Unmarshal(blob, snap); err != nil {
			return fmt.Errorf("%s: %v", *snapshot, err)
		}
	case *sockets != "":
		var err error
		if snap, err = scrape(strings.Split(*sockets, ",")); err != nil {
			return err
		}
		if *record != "" {
			blob, err := json.MarshalIndent(snap, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*record, blob, 0o644); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("need -sockets or -snapshot (see -h)")
	}

	if len(slos) > 0 {
		snap.EvaluateSLOs(slos)
	}
	render(out, snap, *topK, *sparkW)
	return nil
}

// scrape pulls every socket's timeseries and profile ops and merges the
// fleet view — the external-collector form of cluster.(*Cluster).Scrape.
func scrape(paths []string) (*cluster.FleetSnapshot, error) {
	snap := &cluster.FleetSnapshot{}
	series := make([][]obs.SeriesJSON, 0, len(paths))
	for i, path := range paths {
		path = strings.TrimSpace(path)
		c, err := syrupd.Dial(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		ts, err := c.Do(&syrupd.Request{Op: "timeseries"})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		hs := cluster.HostSnapshot{
			Host:  strings.TrimSuffix(filepath.Base(path), ".sock"),
			Index: i, NowNS: ts.NowNS, Series: ts.Series,
		}
		if pr, err := c.Do(&syrupd.Request{Op: "profile"}); err == nil {
			hs.Profiles = pr.Profiles
		}
		// Hosts without adaptive control answer with an error; that just
		// leaves the annotations empty.
		if ah, err := c.Do(&syrupd.Request{Op: "adapt_history"}); err == nil {
			hs.Decisions = ah.Decisions
		}
		c.Close()
		snap.Hosts = append(snap.Hosts, hs)
		series = append(series, hs.Series)
		if hs.NowNS > snap.NowNS {
			snap.NowNS = hs.NowNS
		}
	}
	snap.Merged = obs.MergeSeries(series...)
	return snap, nil
}

// last returns the final value of the named series, or 0.
func last(series []obs.SeriesJSON, name string) float64 {
	for _, s := range series {
		if s.Name == name {
			if _, v, ok := obs.LastPoint(s); ok {
				return v
			}
		}
	}
	return 0
}

// lastMax returns the max final value across series matching the suffix
// (e.g. the worst per-class p99 on a host).
func lastMax(series []obs.SeriesJSON, suffix string) float64 {
	out := 0.0
	for _, s := range series {
		if !strings.HasSuffix(s.Name, suffix) {
			continue
		}
		if _, v, ok := obs.LastPoint(s); ok && v > out {
			out = v
		}
	}
	return out
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the tail of a value series as unicode block bars,
// scaled to the window's min..max.
func sparkline(series []obs.SeriesJSON, name string, width int) string {
	var v []float64
	for _, s := range series {
		if s.Name == name {
			v = s.V
			break
		}
	}
	if len(v) == 0 || width <= 0 {
		return ""
	}
	if len(v) > width {
		v = v[len(v)-width:]
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	for _, x := range v {
		i := 0
		if hi > lo {
			i = int((x - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

func render(out io.Writer, snap *cluster.FleetSnapshot, topK, sparkW int) {
	fmt.Fprintf(out, "fleet @ %.1fms virtual, %d hosts\n\n", float64(snap.NowNS)/1e6, len(snap.Hosts))
	fmt.Fprintf(out, "%10s %10s %9s %9s %10s %5s  %s\n",
		"host", "rps", "p50_us", "p99_us", "drops_ps", "quar", "rps trend")
	row := func(name string, series []obs.SeriesJSON) {
		fmt.Fprintf(out, "%10s %10.0f %9.1f %9.1f %10.0f %5.0f  %s\n",
			name,
			last(series, "rps"),
			lastMax(series, "_p50_us"),
			lastMax(series, "_p99_us"),
			last(series, "drop_rate"),
			last(series, "quarantined_links"),
			sparkline(series, "rps", sparkW))
	}
	for _, hs := range snap.Hosts {
		row(hs.Host, hs.Series)
	}
	row("FLEET", snap.Merged)

	if len(snap.SLOs) > 0 {
		fmt.Fprintf(out, "\nSLOs\n")
		for _, r := range snap.SLOs {
			fmt.Fprintf(out, "  %s\n", r)
		}
	}

	hot := hotPolicies(snap)
	if len(hot) > topK {
		hot = hot[:topK]
	}
	if len(hot) > 0 {
		fmt.Fprintf(out, "\nhot policies (by profiled ns)\n")
		fmt.Fprintf(out, "%10s %4s %-14s %-14s %10s %9s %7s\n",
			"host", "app", "hook", "program", "runs", "ns/run", "hot_pc")
		for _, h := range hot {
			pc := "-"
			if i := hotPC(h.Hits); i >= 0 {
				pc = strconv.Itoa(i)
			}
			fmt.Fprintf(out, "%10s %4d %-14s %-14s %10d %9.1f %7s\n",
				h.host, h.App, h.Hook, h.Program, h.Runs, h.NsPerRun, pc)
		}
	}

	annotated := false
	for _, hs := range snap.Hosts {
		if len(hs.Decisions) == 0 {
			continue
		}
		if !annotated {
			fmt.Fprintf(out, "\ncontroller decisions\n")
			annotated = true
		}
		for _, d := range hs.Decisions {
			fmt.Fprintf(out, "%10s %s\n", hs.Host, d)
		}
	}
}

// hotRow is one profiled deployment tagged with its host.
type hotRow struct {
	host string
	syrupd.ProfileInfo
}

// hotPolicies flattens every host's profiles and orders them hottest
// first (total profiled nanos, then runs, then name for determinism).
func hotPolicies(snap *cluster.FleetSnapshot) []hotRow {
	var rows []hotRow
	for _, hs := range snap.Hosts {
		for _, p := range hs.Profiles {
			rows = append(rows, hotRow{host: hs.Host, ProfileInfo: p})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nanos != rows[j].Nanos {
			return rows[i].Nanos > rows[j].Nanos
		}
		if rows[i].Runs != rows[j].Runs {
			return rows[i].Runs > rows[j].Runs
		}
		if rows[i].host != rows[j].host {
			return rows[i].host < rows[j].host
		}
		return rows[i].Program < rows[j].Program
	})
	return rows
}

// hotPC is the hottest instruction slot (argmax of the hit counters),
// or -1 when the profile recorded no per-slot hits — a deployment that
// was profiled but never ran has an empty counter array, not slot 0.
func hotPC(hits []uint64) int {
	if len(hits) == 0 {
		return -1
	}
	pc := 0
	for i, h := range hits {
		if h > hits[pc] {
			pc = i
		}
	}
	return pc
}
