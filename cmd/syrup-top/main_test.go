package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"syrup"
	"syrup/internal/cluster"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

// TestRenderRecordedSnapshot: the deterministic path — a committed
// 4-host FleetSnapshot renders the per-host table, fleet row, SLO burn
// state, and the hot-policy ranking by instructions executed.
func TestRenderRecordedSnapshot(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-snapshot", filepath.Join("testdata", "fleet.json"),
		"-slo", "ls_p99:latency_LS_p99_us:500:0.5",
		"-slo", "drops:drop_rate/rps:0.5:0.5",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()

	if !strings.Contains(out, "fleet @ 10.0ms virtual, 4 hosts") {
		t.Fatalf("missing fleet header:\n%s", out)
	}
	for _, host := range []string{"host-00", "host-01", "host-02", "host-03"} {
		if !strings.Contains(out, host) {
			t.Fatalf("missing row for %s:\n%s", host, out)
		}
	}
	// FLEET row: summed rps, max p99, summed drop rate, max quarantine.
	fleetRow := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "FLEET") {
			fleetRow = line
		}
	}
	for _, want := range []string{"50000", "900.0", "130.0", "60", "1"} {
		if !strings.Contains(fleetRow, want) {
			t.Fatalf("FLEET row %q missing %q", fleetRow, want)
		}
	}
	// The linear rps ramp renders as a rising sparkline.
	if !strings.Contains(out, "▁▂▄▆█") {
		t.Fatalf("missing rps sparkline:\n%s", out)
	}
	// Every merged p99 sample (900µs) violates the 500µs target: burn =
	// (1/0.5) = 2x on both windows. The drop objective stays ok.
	if !strings.Contains(out, "ls_p99 short=2.00x long=2.00x n=5 BURNING") {
		t.Fatalf("missing burning SLO line:\n%s", out)
	}
	if !strings.Contains(out, "drops short=0.00x long=0.00x n=5 ok") {
		t.Fatalf("missing healthy SLO line:\n%s", out)
	}
	// Hot policies ranked by instructions executed: sita (23100 insns,
	// 8000 runs) above scan_avoid (10000 insns, 9000 runs), though it ran
	// less; sita's hottest slot is pc 0 (argmax tie→first).
	si := strings.Index(out, "sita")
	sa := strings.Index(out, "scan_avoid")
	if si < 0 || sa < 0 || si > sa {
		t.Fatalf("hot-policy ranking wrong (sita@%d scan_avoid@%d):\n%s", si, sa, out)
	}
	for _, want := range []string{"insns/run", "8000       2.9       0", "9000       1.1       0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hot-policy table missing %q:\n%s", want, out)
		}
	}

	// host-00's listing was recorded when daemons still published three
	// load-time optimizer counters; names no host emits any more must not
	// stop a recording from loading.
	blob, err := os.ReadFile(filepath.Join("testdata", "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap cluster.FleetSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil || len(snap.Hosts[0].Counters) != 3 {
		t.Fatalf("fixture lost its old counter listing (err %v)", err)
	}
}

// TestRenderHostileSnapshot: a fresh host (series registered, zero
// points), a host with exactly one sample, and a torn recording (a
// timestamp with no value) must all render as rows, not panics — the
// scrape-before-first-tick case. A deployment that never ran (all-zero
// hit counters) shows "-" instead of claiming slot 0 is hot, an objective over an
// absent series reports NO-DATA instead of ok, and a host that carries
// controller decisions gets them rendered as annotations. A window
// spanning ±MaxFloat64 (extreme.json) renders its two bars: it used to
// scale to Inf/Inf and index the bar table at int(NaN).
func TestRenderHostileSnapshot(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-snapshot", filepath.Join("testdata", "empty.json"),
		"-slo", "ls_p99:latency_LS_p99_us:500:0.5",
		"-slo", "fresh:no_such_series:1:0.5",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fleet @ 2.0ms virtual, 3 hosts",
		"fresh-00", "young-01", "torn-02", "FLEET",
		"ls_p99 short=0.00x long=0.00x n=1 ok",
		"fresh short=0.00x long=0.00x n=0 NO-DATA",
		"controller decisions",
		"ls_burn    fire     swap app=1 socket_select -> shed (short=2.10x)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The idle deployment renders a "-" hot_pc, right-aligned in its column.
	if !strings.Contains(out, " 0.0       -") {
		t.Errorf("idle deployment should render hot_pc '-':\n%s", out)
	}
	// One sample renders a one-bar sparkline on the young host's table
	// row (its decision annotation also names the host; skip that).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "young-01") && strings.Contains(line, "700") && !strings.HasSuffix(line, "▁") {
			t.Errorf("one-point sparkline missing on %q", line)
		}
	}

	b.Reset()
	if err := run([]string{"-snapshot", filepath.Join("testdata", "extreme.json")}, &b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "  ▁█\n"); n != 2 {
		t.Errorf("extreme window: %d of the host and FLEET rows end in the lowest and highest bar, want 2:\n%s", n, b.String())
	}
}

// TestRenderTornSnapshot: a series whose timestamps outnumber its values
// (or the reverse) reads as its paired points in the merged view, in the
// SLOs over it (plain and ratio) and in a fleet merge recomputed from the
// hosts, sorted or not — each used to index past the shorter array.
func TestRenderTornSnapshot(t *testing.T) {
	path := filepath.Join("testdata", "torn.json")
	var b strings.Builder
	err := run([]string{"-snapshot", path, "-slo", "x:p99:100:0.5", "-slo", "r:p99/rps:0.5:0.5", "-slo-short-ms", "1", "-slo-long-ms", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"x short=2.00x long=2.00x n=1 BURNING", "r short=0.00x long=0.00x n=1 ok"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap cluster.FleetSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	fleet := cluster.NewFleetSnapshot(snap.Hosts)
	want := []obs.SeriesJSON{
		{Name: "p99", T: []int64{10, 20, 30}, V: []float64{550, 60, 70}},
		{Name: "rps", T: []int64{10, 20, 30}, V: []float64{800, 200, 1200}},
	}
	if !reflect.DeepEqual(fleet.Merged, want) {
		t.Errorf("merge of the torn hosts = %v, want %v", fleet.Merged, want)
	}
}

// FuzzRender: no recording, however hostile, panics syrup-top's path from
// bytes to screen — decoding, re-merging the hosts, a plain and a ratio
// objective over the merged view, and the render.
func FuzzRender(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	slos := []obs.SLO{
		{Name: "plain", Series: "p99", Target: 100, Budget: 0.5, Short: 10, Long: 1e9},
		{Name: "ratio", Series: "drop_rate", Denom: "rps", Target: 0.01, Budget: 0.5, Short: 10, Long: 1e9},
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var snap cluster.FleetSnapshot
		if json.Unmarshal(blob, &snap) != nil {
			return
		}
		snap.EvaluateSLOs(slos)
		render(io.Discard, &snap, 5, 24)
		fleet := cluster.NewFleetSnapshot(snap.Hosts)
		fleet.EvaluateSLOs(slos)
		render(io.Discard, fleet, 5, 24)
	})
}

// TestHotPCOfANeverRunDeployment: a real deployment that has not run yet
// lists one zero counter per slot, and its hot_pc is "-", not slot 0.
func TestHotPCOfANeverRunDeployment(t *testing.T) {
	host, _ := syrup.MustHostApp(syrup.HostConfig{}, 1, 1000, 9000)
	host.Stack.NewUDPSocket(9000, 1, "w0")
	if _, err := host.Daemon.DeployBuiltin(1, syrup.HookSocketSelect, policy.NameRoundRobin, map[string]int64{"NUM_THREADS": 1}); err != nil {
		t.Fatal(err)
	}
	links := host.Daemon.Links()
	if len(links) != 1 || len(links[0].Hits) == 0 || links[0].Runs != 0 {
		t.Fatalf("links = %+v, want one never-run deployment with its slots listed", links)
	}
	if pc := hotPC(links[0].Hits); pc != -1 {
		t.Fatalf("hotPC(%v) = %d, want -1", links[0].Hits, pc)
	}
}

// TestSLOFlagRefusesObjectivesThatCannotBurn: an objective with no
// series, a target that is not a number, a budget outside (0, 1] or a
// short window longer than the long one is refused before anything
// renders — a zero budget used to print a quiet "ok" for ever.
func TestSLOFlagRefusesObjectivesThatCannotBurn(t *testing.T) {
	fleet := filepath.Join("testdata", "fleet.json")
	for _, args := range [][]string{
		{"-slo", "zero:rps:0:0"},
		{"-slo", "nan:rps:NaN:0.5"},
		{"-slo", "inf:rps:+Inf:0.5"},
		{"-slo", "neg:rps:1:-1"},
		{"-slo", "over:rps:1:1.5"},
		{"-slo", "blind::1:0.5"},
		{"-slo", "ok:rps:1:0.5", "-slo-short-ms", "30"},
		{"-slo", "ok:rps:1:0.5", "-slo-short-ms", "0"},
	} {
		var b strings.Builder
		if err := run(append([]string{"-snapshot", fleet}, args...), &b); err == nil || !strings.Contains(err.Error(), "-slo") {
			t.Errorf("%q: err = %v, want an -slo refusal", args, err)
		}
		if b.Len() != 0 {
			t.Errorf("%q: rendered %d bytes before refusing", args, b.Len())
		}
	}
}

// TestLiveScrapeMatchesRecording: scrape a real 4-host fleet over its
// syrupd sockets, record the snapshot, and confirm the recorded render is
// byte-identical to the live one. The socket scrape is the in-process one:
// every recorded host carries its member's whole counter list, and
// cluster.ScrapeHost gives the same JSON over Client.Do as over Server.Do.
func TestLiveScrapeMatchesRecording(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Hosts: 4, Seed: 42, TableSize: 251,
		Tune: func(i int, cfg *syrup.HostConfig) {
			cfg.Telemetry = &obs.Config{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Members {
		if _, err := m.Host.RegisterApp(1, 1000, 9000); err != nil {
			t.Fatal(err)
		}
		m.Host.Stack.NewUDPSocket(9000, 1, "w0")
		m.Host.Stack.NewUDPSocket(9000, 1, "w1")
		host := m.Host
		host.Obs.Rate("rps", func() float64 { return float64(host.Stack.Stats.Processed) })
	}
	// Deploy everywhere through the control plane; the probe bake drives
	// traffic through each host so series and links are non-trivial.
	rep, err := c.Rollout(cluster.RolloutConfig{
		App: 1, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin, Defines: map[string]int64{"NUM_THREADS": 2},
		Canaries: 4, Bake: 5 * sim.Millisecond,
	})
	if err != nil || rep.Aborted {
		t.Fatalf("rollout failed: %v %+v", err, rep)
	}

	dir := t.TempDir()
	var socks []string
	var srvs []*syrupd.Server
	for _, m := range c.Members {
		srv := syrupd.NewServer(m.Host.Daemon)
		path := filepath.Join(dir, m.Name+".sock")
		if err := srv.ListenUnix(path); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		socks = append(socks, path)
		srvs = append(srvs, srv)
	}

	rec := filepath.Join(dir, "fleet.json")
	var live strings.Builder
	if err := run([]string{"-sockets", strings.Join(socks, ","), "-record", rec}, &live); err != nil {
		t.Fatal(err)
	}
	var replay strings.Builder
	if err := run([]string{"-snapshot", rec}, &replay); err != nil {
		t.Fatal(err)
	}
	if live.String() != replay.String() {
		t.Fatalf("recorded render diverged from live:\n--- live\n%s--- replay\n%s", live.String(), replay.String())
	}
	out := live.String()
	if !strings.Contains(out, "4 hosts") || !strings.Contains(out, "host-03") {
		t.Fatalf("unexpected live render:\n%s", out)
	}
	// Every deployment counts its instructions, so the hot-policy table is
	// populated with no option set.
	if !strings.Contains(out, "hot policies") {
		t.Fatalf("no hot policies in live render:\n%s", out)
	}

	blob, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	var snap cluster.FleetSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	for i, hs := range snap.Hosts {
		m := c.Members[i]
		if want := m.Host.Daemon.Counters(); len(hs.Counters) == 0 || !slices.Equal(hs.Counters, want) {
			t.Errorf("%s: recorded counters %v, member lists %v", hs.Host, hs.Counters, want)
		}
		cl, err := syrupd.Dial(socks[i])
		if err != nil {
			t.Fatal(err)
		}
		overSocket, err := cluster.ScrapeHost(m.Name, m.Index, cl.Do)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		inProcess, err := cluster.ScrapeHost(m.Name, m.Index, srvs[i].Do)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(overSocket)
		b, _ := json.Marshal(inProcess)
		if string(a) != string(b) {
			t.Errorf("%s: ScrapeHost over the socket differs from in process:\n%s\n%s", m.Name, a, b)
		}
	}
}
