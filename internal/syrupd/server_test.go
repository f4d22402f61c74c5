package syrupd

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/storage"
	"syrup/internal/trace"
)

func TestServerHandleInProcess(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)

	// register_app
	resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	if !resp.OK {
		t.Fatalf("register: %+v", resp)
	}
	// duplicate register fails
	if resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9001}}); resp.OK {
		t.Fatal("duplicate register accepted")
	}

	h.stack.NewUDPSocket(9000, 1, "w")
	h.stack.NewUDPSocket(9000, 1, "w")

	// deploy a builtin
	resp = srv.Handle(&Request{
		Op: "deploy", App: 1, Hook: "socket_select",
		Policy: "round_robin", Defines: map[string]int64{"NUM_THREADS": 2},
	})
	if !resp.OK || resp.Instructions == 0 || resp.SourceLines == 0 {
		t.Fatalf("deploy: %+v", resp)
	}

	// deploy raw source at xdp
	resp = srv.Handle(&Request{Op: "deploy", App: 1, Hook: "xdp_skb", Source: "r0 = PASS\nexit\n"})
	if !resp.OK {
		t.Fatalf("deploy source: %+v", resp)
	}

	// deploy errors
	for _, bad := range []*Request{
		{Op: "deploy", App: 1, Hook: "bogus", Policy: "round_robin"},
		{Op: "deploy", App: 1, Hook: "socket_select"},
		{Op: "deploy", App: 1, Hook: "socket_select", Policy: "nope"},
		{Op: "deploy", App: 9, Hook: "socket_select", Policy: "round_robin"},
	} {
		if resp := srv.Handle(bad); resp.OK {
			t.Fatalf("bad deploy accepted: %+v", bad)
		}
	}

	// map ops through the pin namespace
	resp = srv.Handle(&Request{Op: "map_update", Path: "/syrup/1/rr_state", UID: 1000, Key: 0, Value: 5})
	if !resp.OK {
		t.Fatalf("map_update: %+v", resp)
	}
	resp = srv.Handle(&Request{Op: "map_lookup", Path: "/syrup/1/rr_state", UID: 1000, Key: 0})
	if !resp.OK || !resp.Found || resp.Value != 5 {
		t.Fatalf("map_lookup: %+v", resp)
	}
	// wrong uid
	if resp := srv.Handle(&Request{Op: "map_lookup", Path: "/syrup/1/rr_state", UID: 42, Key: 0}); resp.OK {
		t.Fatal("foreign uid read a private map")
	}

	// list_policies
	resp = srv.Handle(&Request{Op: "list_policies"})
	if !resp.OK || len(resp.Policies) < 6 {
		t.Fatalf("list: %+v", resp)
	}

	// stats without a StatsFunc
	if resp := srv.Handle(&Request{Op: "stats"}); !resp.OK {
		t.Fatalf("stats: %+v", resp)
	}
	srv.StatsFunc = func() map[string]float64 { return map[string]float64{"x": 1} }
	if resp := srv.Handle(&Request{Op: "stats"}); resp.Stats["x"] != 1 {
		t.Fatalf("stats func: %+v", resp)
	}

	// unknown op
	if resp := srv.Handle(&Request{Op: "frobnicate"}); resp.OK {
		t.Fatal("unknown op accepted")
	}
}

// TestServerDeployRejectsHostileMapSpecs: deploy assembles source from any
// client, so a .map line is hostile input. A size that wraps past 32 bits
// and an array whose storage the runtime cannot allocate (which ends the
// process: no recover catches it) both come back as errors, and the
// daemon keeps serving.
func TestServerDeployRejectsHostileMapSpecs(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	h.stack.NewUDPSocket(9000, 1, "w")
	for _, src := range []string{
		".map w array 4 4294967304 4294967297\nr0 = PASS\nexit\n",
		".map big array 4 65536 4294967295\nr0 = PASS\nexit\n",
	} {
		if resp := srv.Handle(&Request{Op: "deploy", App: 1, Hook: "socket_select", Source: src}); resp.OK {
			t.Fatalf("deployed %q: %+v", src, resp)
		}
		if resp := srv.Handle(&Request{Op: "links"}); !resp.OK || len(resp.Links) != 0 {
			t.Fatalf("links after a rejected deploy: %+v", resp)
		}
	}
}

func TestServerLinksAndRevokeOps(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	srv.Handle(&Request{Op: "register_app", App: 2, UID: 1001, Ports: []uint16{9001}})
	s, _ := h.stack.NewUDPSocket(9000, 1, "w")
	h.stack.NewUDPSocket(9001, 2, "w")
	if resp := srv.Handle(&Request{Op: "deploy", App: 1, Hook: "socket_select", Source: "r0 = 0\nexit\n"}); !resp.OK {
		t.Fatalf("deploy: %+v", resp)
	}
	if resp := srv.Handle(&Request{Op: "deploy", App: 2, Hook: "xdp_skb", Source: "r0 = PASS\nexit\n"}); !resp.OK {
		t.Fatalf("deploy: %+v", resp)
	}
	for i := 0; i < 3; i++ {
		h.dev.Receive(pkt(uint64(i), 1, 9000, nil))
	}
	h.eng.Run()
	if s.Len() != 3 {
		t.Fatalf("delivered %d", s.Len())
	}

	resp := srv.Handle(&Request{Op: "links"})
	if !resp.OK || len(resp.Links) != 2 {
		t.Fatalf("links: %+v", resp)
	}
	if li := resp.Links[0]; li.App != 1 || li.Hook != "socket_select" || li.Runs != 3 {
		t.Fatalf("link[0]: %+v", li)
	}
	// Filter by app.
	resp = srv.Handle(&Request{Op: "links", App: 2})
	if len(resp.Links) != 1 || resp.Links[0].App != 2 {
		t.Fatalf("filtered links: %+v", resp)
	}

	// The stats op reports this host's own hook counters: exactly the
	// three socket-select runs, the three root-dispatcher passes at XDP,
	// and nothing for the idle points.
	stats := srv.Handle(&Request{Op: "stats"}).Stats
	for key, want := range map[string]float64{
		"ebpf_hook_runs_socket_select_9000": 3,
		"ebpf_hook_runs_socket_select_9001": 0,
		"ebpf_hook_runs_xdp":                3,
		"ebpf_hook_runs_cpu_redirect":       0,
		"ebpf_hook_runs_xdp_offload":        0,
		"ebpf_hook_faults":                  0,
	} {
		if got, ok := stats[key]; !ok || got != want {
			t.Fatalf("stats[%s] = %v (present %v), want %v", key, got, ok, want)
		}
	}

	if resp := srv.Handle(&Request{Op: "revoke_app", App: 1}); !resp.OK {
		t.Fatalf("revoke: %+v", resp)
	}
	if resp := srv.Handle(&Request{Op: "revoke_app", App: 9}); resp.OK {
		t.Fatal("revoking unknown app accepted")
	}
	resp = srv.Handle(&Request{Op: "links"})
	if len(resp.Links) != 1 || resp.Links[0].App != 2 {
		t.Fatalf("links after revoke: %+v", resp)
	}
}

func TestServerTraceOp(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)

	// Without a tracer the op reports a clean error.
	if resp := srv.Handle(&Request{Op: "trace"}); resp.OK {
		t.Fatal("trace op succeeded without a tracer")
	}

	r := trace.New(64)
	h.dev.SetTracer(r)
	h.stack.SetTracer(r)
	h.d.SetTracer(r)

	srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	srv.Handle(&Request{Op: "register_app", App: 2, UID: 1001, Ports: []uint16{9001}})
	h.stack.NewUDPSocket(9000, 1, "w")
	h.stack.NewUDPSocket(9001, 2, "w")

	for i := 0; i < 3; i++ {
		h.dev.Receive(pkt(uint64(100+i), 1, 9000, nil))
	}
	h.dev.Receive(pkt(200, 1, 9001, nil))
	h.eng.Run()

	// Unfiltered: every span the ring holds.
	resp := srv.Handle(&Request{Op: "trace"})
	if !resp.OK || len(resp.Spans) == 0 {
		t.Fatalf("trace: %+v", resp)
	}
	if resp.Total != uint64(len(resp.Spans)) || resp.Dropped != 0 {
		t.Fatalf("trace accounting: total=%d dropped=%d spans=%d", resp.Total, resp.Dropped, len(resp.Spans))
	}
	stages := map[string]bool{}
	for _, sp := range resp.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"nic", "softirq", "proto"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from trace; have %v", want, stages)
		}
	}

	// Port filter.
	resp = srv.Handle(&Request{Op: "trace", Port: 9001})
	if !resp.OK || len(resp.Spans) == 0 {
		t.Fatalf("port filter: %+v", resp)
	}
	for _, sp := range resp.Spans {
		if sp.Port != 9001 {
			t.Fatalf("port filter leaked span %+v", sp)
		}
	}

	// App filter restricts to the app's ports.
	resp = srv.Handle(&Request{Op: "trace", App: 1})
	if !resp.OK || len(resp.Spans) == 0 {
		t.Fatalf("app filter: %+v", resp)
	}
	for _, sp := range resp.Spans {
		if sp.Port != 9000 {
			t.Fatalf("app filter leaked span %+v", sp)
		}
	}
	if resp := srv.Handle(&Request{Op: "trace", App: 9}); resp.OK {
		t.Fatal("trace for unknown app accepted")
	}

	// Max caps the reply.
	resp = srv.Handle(&Request{Op: "trace", Max: 2})
	if !resp.OK || len(resp.Spans) != 2 {
		t.Fatalf("max cap: got %d spans", len(resp.Spans))
	}
}

func TestServerStatsHistogramsAndDelta(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)

	// Without a sampler the host has no histograms to fold in.
	if stats := srv.Handle(&Request{Op: "stats"}).Stats; len(stats) != len(h.d.Counters()) {
		t.Fatalf("sampler-less stats carry more than the counters: %v", stats)
	}
	hist := metrics.NewHistogram()
	for i := 0; i < 100; i++ {
		hist.Record(50_000) // 50 µs
	}
	sa := obs.NewSampler(obs.Config{})
	sa.Histogram("srvtest_lat", hist)
	h.d.SetObs(sa)

	stats := srv.Handle(&Request{Op: "stats"}).Stats
	if stats["srvtest_lat_count"] != 100 {
		t.Fatalf("histogram count missing: %v", stats)
	}
	for _, k := range []string{"srvtest_lat_p50_us", "srvtest_lat_p99_us", "srvtest_lat_p999_us"} {
		// Exact bucket boundaries are the histogram's business; the stats
		// op just needs to land near 50 µs.
		if v := stats[k]; v < 45 || v > 55 {
			t.Fatalf("%s = %v, want ≈50", k, v)
		}
	}

	// StatsFunc keys win over derived histogram keys.
	srv.StatsFunc = func() map[string]float64 { return map[string]float64{"srvtest_lat_p50_us": -1} }
	if v := srv.Handle(&Request{Op: "stats"}).Stats["srvtest_lat_p50_us"]; v != -1 {
		t.Fatalf("StatsFunc key clobbered: %v", v)
	}
	srv.StatsFunc = nil

	// The metrics op exports the same histogram and counters.
	text := srv.Handle(&Request{Op: "metrics"}).Text
	for _, line := range []string{"syrup_srvtest_lat_count 100 0", "syrup_ebpf_hook_runs_xdp 0 0"} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}

	// Delta mode: increments since this server's previous delta snapshot.
	const key = "ebpf_hook_runs_socket_select_9000"
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w")
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		for i := 0; i < n; i++ {
			h.dev.Receive(pkt(uint64(i), 1, 9000, nil))
		}
		h.eng.Run()
	}
	send(2)
	other := NewServer(h.d) // a second consumer with its own baseline
	if got := srv.Handle(&Request{Op: "stats", Delta: true}).Stats[key]; got != 2 {
		t.Fatalf("first delta = %v, want 2 (everything since start)", got)
	}
	send(7)
	if got := srv.Handle(&Request{Op: "stats", Delta: true}).Stats[key]; got != 7 {
		t.Fatalf("delta = %v, want 7", got)
	}
	if got := srv.Handle(&Request{Op: "stats", Delta: true}).Stats[key]; got != 0 {
		t.Fatalf("second delta = %v, want 0", got)
	}
	if got := other.Handle(&Request{Op: "stats", Delta: true}).Stats[key]; got != 9 {
		t.Fatalf("other server's delta = %v, want 9 (baseline stolen?)", got)
	}
	// Cumulative view is untouched by delta snapshots.
	if got := srv.Handle(&Request{Op: "stats"}).Stats[key]; got != 9 {
		t.Fatalf("cumulative = %v, want 9", got)
	}
}

// TestCountersDeterministic: Daemon.Counters is the one enumeration
// of a host's counters — exactly the points the host owns plus the
// daemon's own, name-sorted, stable across calls, and value-for-value what
// the stats op and the links op report.
func TestCountersDeterministic(t *testing.T) {
	h := newHost(t, 1, 2)
	h.d.AttachStorage(storage.NewDevice(h.eng, storage.Config{}))
	h.d.RegisterApp(1, 1000, 9000, 80)
	h.d.RegisterApp(2, 1001, 9001)
	h.stack.NewUDPSocket(9001, 2, "w") // bound before 9000: the listing sorts
	h.stack.NewUDPSocket(9000, 1, "w")
	h.stack.TCPGroup(80, 1)
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.DeployThreadPolicy(2, &policy.FIFO{}, 0, []kernel.CPUID{1}, ghost.Config{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.dev.Receive(pkt(uint64(i), 1, 9000, nil))
	}
	h.eng.Run()

	got := h.d.Counters()
	var names []string
	for _, c := range got {
		names = append(names, c.Name)
	}
	want := []string{
		"ebpf_hook_faults",
		"ebpf_hook_faults_cpu_redirect", "ebpf_hook_faults_socket_select_80_tcp",
		"ebpf_hook_faults_socket_select_9000", "ebpf_hook_faults_socket_select_9001",
		"ebpf_hook_faults_storage", "ebpf_hook_faults_thread_sched_app2",
		"ebpf_hook_faults_xdp", "ebpf_hook_faults_xdp_offload",
		"ebpf_hook_runs_cpu_redirect", "ebpf_hook_runs_socket_select_80_tcp",
		"ebpf_hook_runs_socket_select_9000", "ebpf_hook_runs_socket_select_9001",
		"ebpf_hook_runs_storage", "ebpf_hook_runs_thread_sched_app2",
		"ebpf_hook_runs_xdp", "ebpf_hook_runs_xdp_offload",
		"syrupd_quarantines",
	}
	if !slices.Equal(names, want) || !slices.IsSorted(names) {
		t.Fatalf("counter names = %v\nwant %v", names, want)
	}
	if again := h.d.Counters(); !slices.Equal(again, got) {
		t.Fatalf("listing changed between calls:\n%v\n%v", got, again)
	}
	stats := NewServer(h.d).Handle(&Request{Op: "stats"}).Stats
	for _, c := range got {
		if v, ok := stats[c.Name]; !ok || v != float64(c.Value) {
			t.Fatalf("stats[%s] = %v (present %v), Counters says %d", c.Name, v, ok, c.Value)
		}
	}
	// Each direct link agrees with its point's counter: 5 runs on the UDP
	// group that saw the traffic, 0 on the idle TCP group.
	linkRuns := map[string]uint64{}
	for _, l := range h.d.Links() {
		linkRuns[l.Target] = l.Runs
	}
	if linkRuns["socket_select:9000"] != 5 || stats["ebpf_hook_runs_socket_select_9000"] != 5 ||
		linkRuns["socket_select:80/tcp"] != 0 || stats["ebpf_hook_runs_socket_select_80_tcp"] != 0 {
		t.Fatalf("links %v disagree with counters %v", linkRuns, stats)
	}
}

// TestStatsDeltaConcurrent: delta reads racing the simulation must never
// lose or double-count an increment — the deltas one consumer collects
// plus its final residue sum to exactly the runs the host made. The
// counters are plain fields, so this is the big lock's job; `make chaos`
// runs it under -race.
func TestStatsDeltaConcurrent(t *testing.T) {
	const key = "ebpf_hook_runs_socket_select_9000"
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w")
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h.d)

	// Snapshot loop racing the simulation; collected is only touched here
	// and read after the goroutine exits.
	var collected float64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				collected += srv.Handle(&Request{Op: "stats", Delta: true}).Stats[key]
			}
		}
	}()

	const steps, perStep = 200, 5
	for step := 0; step < steps; step++ {
		srv.Lock()
		for i := 0; i < perStep; i++ {
			h.dev.Receive(pkt(uint64(step*perStep+i), 1, 9000, nil))
		}
		h.eng.Run()
		srv.Unlock()
	}
	close(stop)
	<-done

	residue := srv.Handle(&Request{Op: "stats", Delta: true}).Stats[key]
	if got := collected + residue; got != steps*perStep {
		t.Fatalf("deltas sum to %v, want %d", got, steps*perStep)
	}
	if got := srv.Handle(&Request{Op: "links"}).Links[0].Runs; got != steps*perStep {
		t.Fatalf("link runs = %d, want %d", got, steps*perStep)
	}
}

func TestServerOverUnixSocket(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w")
	srv := NewServer(h.d)
	path := filepath.Join(t.TempDir(), "syrupd.sock")
	if err := srv.ListenUnix(path); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Do(&Request{
		Op: "deploy", App: 1, Hook: "socket_select",
		Policy: "round_robin", Defines: map[string]int64{"NUM_THREADS": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Instructions == 0 {
		t.Fatalf("deploy over uds: %+v", resp)
	}

	// Error path round-trips as an error.
	_, err = c.Do(&Request{Op: "deploy", App: 1, Hook: "socket_select", Policy: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("error not propagated: %v", err)
	}

	// A second client works concurrently.
	c2, err := Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if resp, err := c2.Do(&Request{Op: "list_policies"}); err != nil || len(resp.Policies) == 0 {
		t.Fatalf("second client: %v %+v", err, resp)
	}
}
