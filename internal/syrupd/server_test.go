package syrupd

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
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

	// snapshot: the one read op
	if hs := snapshotOf(t, srv); len(hs.Links) != 2 || len(hs.Counters) == 0 {
		t.Fatalf("snapshot: %+v", hs)
	}

	// unknown ops, the read ops snapshot replaced among them
	for _, op := range []string{"frobnicate", "stats", "metrics", "timeseries", "links", "adapt_status", "adapt_rules", "adapt_history"} {
		if resp := srv.Handle(&Request{Op: op}); resp.OK || !strings.Contains(resp.Error, "unknown op") {
			t.Fatalf("%s: %+v, want unknown op", op, resp)
		}
	}
}

// snapshotOf is the snapshot op's reply, failing the test on an error.
func snapshotOf(t testing.TB, srv *Server) *HostSnapshot {
	t.Helper()
	resp := srv.Handle(&Request{Op: "snapshot"})
	if !resp.OK || resp.Snapshot == nil {
		t.Fatalf("snapshot: %+v", resp)
	}
	return resp.Snapshot
}

// serving runs srv's loop with step on every tick the test sends. stop
// closes the server and waits for Serve to return, after which the test
// owns the host again.
func serving(srv *Server, step func()) (tick chan<- time.Time, stop func()) {
	ticks, returned := make(chan time.Time), make(chan struct{})
	go func() {
		srv.Serve(ticks, step)
		close(returned)
	}()
	return ticks, func() {
		srv.Close()
		<-returned
	}
}

// counters indexes a snapshot's counter list by name.
func (hs *HostSnapshot) counters() map[string]uint64 {
	out := make(map[string]uint64, len(hs.Counters))
	for _, c := range hs.Counters {
		out[c.Name] = c.Value
	}
	return out
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
		if links := snapshotOf(t, srv).Links; len(links) != 0 {
			t.Fatalf("links after a rejected deploy: %+v", links)
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
	h.Eng.Run()
	if s.Len() != 3 {
		t.Fatalf("delivered %d", s.Len())
	}

	hs := snapshotOf(t, srv)
	if len(hs.Links) != 2 || hs.Links[1].App != 2 {
		t.Fatalf("links: %+v", hs.Links)
	}
	if li := hs.Links[0]; li.App != 1 || li.Hook != "socket_select" || li.Runs != 3 {
		t.Fatalf("link[0]: %+v", li)
	}

	// The snapshot carries this host's own hook counters: exactly the
	// three socket-select runs, the three root-dispatcher passes at XDP,
	// and nothing for the idle points.
	stats := hs.counters()
	for key, want := range map[string]uint64{
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
	if links := snapshotOf(t, srv).Links; len(links) != 1 || links[0].App != 2 {
		t.Fatalf("links after revoke: %+v", links)
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
	h.Tracer = r

	srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	srv.Handle(&Request{Op: "register_app", App: 2, UID: 1001, Ports: []uint16{9001}})
	h.stack.NewUDPSocket(9000, 1, "w")
	h.stack.NewUDPSocket(9001, 2, "w")

	for i := 0; i < 3; i++ {
		h.dev.Receive(pkt(uint64(100+i), 1, 9000, nil))
	}
	h.dev.Receive(pkt(200, 1, 9001, nil))
	h.Eng.Run()

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

// TestServerSnapshotOp: the snapshot op reads the whole host at one
// instant. A host without a sampler has counters and no series (null on
// the wire, which is how a scraper tells it apart); with one, histogram
// summaries arrive as the sampler's <name>_count / _p50_us / _p99_us /
// _p999_us series. Delta mode is the client's: two snapshots differ by
// exactly the traffic between them, over the clock advance between their
// NowNS.
func TestServerSnapshotOp(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)

	hs := snapshotOf(t, srv)
	if hs.Series != nil || !slices.Equal(hs.Counters, h.d.Counters()) || hs.Adapt != nil || hs.Rules != nil || hs.Decisions != nil {
		t.Fatalf("sampler-less snapshot: %+v", hs)
	}
	if blob, err := json.Marshal(hs); err != nil || !strings.Contains(string(blob), `"series":null`) {
		t.Fatalf("sampler-less snapshot encodes as %s (err %v), want a null series", blob, err)
	}
	hist := metrics.NewHistogram()
	for i := 0; i < 100; i++ {
		hist.Record(50_000) // 50 µs
	}
	sa := obs.NewSampler(obs.Config{})
	sa.Histogram("srvtest_lat", hist)
	sa.Attach(h.Eng)
	h.Obs = sa
	h.Eng.RunUntil(sim.Millisecond)

	hs = snapshotOf(t, srv)
	last := map[string]float64{}
	for _, s := range hs.Series {
		if _, v, ok := obs.LastPoint(s); ok {
			last[s.Name] = v
		}
	}
	if last["srvtest_lat_count"] != 100 || hs.NowNS != int64(sim.Millisecond) {
		t.Fatalf("histogram count missing at %d: %v", hs.NowNS, last)
	}
	for _, k := range []string{"srvtest_lat_p50_us", "srvtest_lat_p99_us", "srvtest_lat_p999_us"} {
		// Exact bucket boundaries are the histogram's business; the series
		// just need to land near 50 µs.
		if v := last[k]; v < 45 || v > 55 {
			t.Fatalf("%s = %v, want ≈50", k, v)
		}
	}

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
		h.Eng.RunUntil(h.Eng.Now() + sim.Millisecond)
	}
	send(2)
	before := snapshotOf(t, srv)
	send(7)
	after := snapshotOf(t, srv)
	if d := after.counters()[key] - before.counters()[key]; d != 7 || after.NowNS-before.NowNS != int64(sim.Millisecond) {
		t.Fatalf("snapshot diff = %d runs over %d ns, want 7 over 1ms", d, after.NowNS-before.NowNS)
	}
	if got := after.counters()[key]; got != 9 {
		t.Fatalf("cumulative = %v, want 9", got)
	}
}

// TestCountersDeterministic: Daemon.Counters is the one enumeration
// of a host's counters — exactly the points the host owns, each layer's
// own counters and the daemon's, name-sorted, stable across calls, and
// value-for-value what the snapshot op reports.
func TestCountersDeterministic(t *testing.T) {
	h := newHost(t, 1, 2)
	h.d.AttachStorage(storage.Config{})
	h.d.RegisterApp(1, 1000, 9000)
	h.d.RegisterApp(2, 1001, 9001)
	h.stack.NewUDPSocket(9001, 2, "w") // bound before 9000: the listing sorts
	h.stack.NewUDPSocket(9000, 1, "w")
	if _, err := h.d.DeployPolicy(1, HookSocketSelect, "r0 = 0\nexit\n", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.d.DeployThreadPolicy(2, &policy.FIFO{}, 0, []kernel.CPUID{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.dev.Receive(pkt(uint64(i), 1, 9000, nil))
	}
	h.Eng.Run()

	got := h.d.Counters()
	var names []string
	for _, c := range got {
		names = append(names, c.Name)
	}
	want := []string{
		"ebpf_hook_faults",
		"ebpf_hook_faults_cpu_redirect",
		"ebpf_hook_faults_socket_select_9000", "ebpf_hook_faults_socket_select_9001",
		"ebpf_hook_faults_storage", "ebpf_hook_faults_thread_sched_app2",
		"ebpf_hook_faults_xdp", "ebpf_hook_faults_xdp_offload",
		"ebpf_hook_runs_cpu_redirect",
		"ebpf_hook_runs_socket_select_9000", "ebpf_hook_runs_socket_select_9001",
		"ebpf_hook_runs_storage", "ebpf_hook_runs_thread_sched_app2",
		"ebpf_hook_runs_xdp", "ebpf_hook_runs_xdp_offload",
		"ghost_commit_drops_app2", "ghost_commits_app2", "ghost_messages_app2",
		"ghost_preempts_app2", "ghost_stalls_app2",
		"kernel_switches",
		"netstack_backlog_drops", "netstack_no_executor_drops", "netstack_no_group_drops",
		"netstack_policy_drops", "netstack_processed", "netstack_socket_drops",
		"netstack_udp_delivered", "netstack_xsk_delivered", "netstack_xsk_drops",
		"nic_dropped_by_xdp", "nic_dropped_ring", "nic_packet_slabs", "nic_received",
		"sim_events_canceled", "sim_events_fired", "sim_events_pending", "sim_events_scheduled",
		"storage_completed", "storage_no_executor", "storage_rejected_full", "storage_submitted",
		"syrupd_quarantines",
	}
	if !slices.Equal(names, want) || !slices.IsSorted(names) {
		t.Fatalf("counter names = %v\nwant %v", names, want)
	}
	if again := h.d.Counters(); !slices.Equal(again, got) {
		t.Fatalf("listing changed between calls:\n%v\n%v", got, again)
	}
	hs := snapshotOf(t, NewServer(h.d))
	if !slices.Equal(hs.Counters, got) {
		t.Fatalf("snapshot counters = %v, Counters says %v", hs.Counters, got)
	}
	stats := hs.counters()
	// The direct link agrees with its point's counter: 5 runs on the group
	// that saw the traffic.
	linkRuns := map[string]uint64{}
	for _, l := range h.d.Links() {
		linkRuns[l.Target] = l.Runs
	}
	if linkRuns["socket_select:9000"] != 5 || stats["ebpf_hook_runs_socket_select_9000"] != 5 {
		t.Fatalf("links %v disagree with counters %v", linkRuns, stats)
	}
	if stats["nic_received"] != 5 || stats["netstack_udp_delivered"] != 5 {
		t.Fatalf("5 datagrams in, counters %v", stats)
	}
	if err := h.d.Conserved(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDeltaConcurrent: snapshots racing the simulation must never
// lose or double-count an increment — the deltas a client computes between
// successive snapshots plus its final residue sum to exactly the runs the
// host made. The counters are plain fields, so this is the mailbox's job:
// the snapshots are posted to the loop that advances the host; `make race`
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
	const steps, perStep = 200, 5
	step := 0
	tick, stopServing := serving(srv, func() {
		for i := 0; i < perStep; i++ {
			h.dev.Receive(pkt(uint64(step*perStep+i), 1, 9000, nil))
		}
		h.Eng.Run()
		step++
	})

	// Snapshot loop racing the simulation; collected and seen are only
	// touched here and read after the goroutine exits.
	var collected, seen uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				resp, _ := srv.Do(&Request{Op: "snapshot"})
				now := resp.Snapshot.counters()[key]
				collected += now - seen
				seen = now
			}
		}
	}()

	for range steps {
		tick <- time.Time{}
	}
	close(stop)
	<-done
	stopServing()

	hs := snapshotOf(t, srv)
	if got := collected + hs.counters()[key] - seen; got != steps*perStep {
		t.Fatalf("deltas sum to %v, want %d", got, steps*perStep)
	}
	if got := hs.Links[0].Runs; got != steps*perStep {
		t.Fatalf("link runs = %d, want %d", got, steps*perStep)
	}
}

// TestServerMapOpsRefuseOtherShapes: map_lookup and map_update address
// 32-bit keys and 64-bit values. A map of another shape is refused by both
// with one error — a lookup must not report "not found" for a map it cannot
// read, such as slot 0 of a narrow array, which exists.
func TestServerMapOpsRefuseOtherShapes(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	h.stack.NewUDPSocket(9000, 1, "w")
	src := ".map wide hash 8 8 4\n.map narrow array 4 4 4\nr0 = PASS\nexit\n"
	if resp := srv.Handle(&Request{Op: "deploy", App: 1, Hook: "socket_select", Source: src}); !resp.OK {
		t.Fatalf("deploy: %+v", resp)
	}
	for _, path := range []string{"/syrup/1/wide", "/syrup/1/narrow"} {
		upd := srv.Handle(&Request{Op: "map_update", Path: path, UID: 1000, Key: 0, Value: 1})
		look := srv.Handle(&Request{Op: "map_lookup", Path: path, UID: 1000, Key: 0})
		if upd.OK || look.OK || look.Found || upd.Error == "" || look.Error != upd.Error {
			t.Errorf("%s: map_update ok=%v %q, map_lookup ok=%v found=%v %q; want both refused with one error",
				path, upd.OK, upd.Error, look.OK, look.Found, look.Error)
		}
	}
}

// TestServerMapOpsBesideTheEventLoop is the race test of the one door:
// client goroutines update and read a pinned map through Server.Do while
// Serve advances the host, as cmd/syrupd's loop does, and the deployed
// policy xadds the same map on every packet. Neither the map nor the
// program locks anything, so only the mailbox keeps this clean under
// -race, and the final values and run counts are exact.
func TestServerMapOpsBesideTheEventLoop(t *testing.T) {
	const (
		clients, updates = 4, 200
		steps, perStep   = 200, 5
	)
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}})
	h.stack.NewUDPSocket(9000, 1, "w")
	// Slot 0 counts packets; slot 1+c belongs to client c.
	src := `.map door array 4 8 8
  *(u32 *)(r10 - 4) = 0
  r1 = map(door)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto out
  r1 = 1
  lock *(u64 *)(r0 + 0) += r1
out:
  r0 = 0
  exit
`
	if resp := srv.Handle(&Request{Op: "deploy", App: 1, Hook: "socket_select", Source: src}); !resp.OK {
		t.Fatalf("deploy: %+v", resp)
	}
	const path = "/syrup/1/door"
	step := 0
	tick, stopServing := serving(srv, func() {
		for i := range perStep {
			h.dev.Receive(pkt(uint64(step*perStep+i), 1, 9000, nil))
		}
		h.Eng.Run()
		step++
	})
	do := func(req *Request) Response {
		resp, _ := srv.Do(req)
		return *resp
	}

	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen uint64
			for i := uint64(1); i <= updates; i++ {
				if resp := do(&Request{Op: "map_update", Path: path, UID: 1000, Key: uint32(1 + c), Value: i}); !resp.OK {
					t.Errorf("client %d: map_update: %+v", c, resp)
					return
				}
				if resp := do(&Request{Op: "map_lookup", Path: path, UID: 1000, Key: uint32(1 + c)}); resp.Value != i {
					t.Errorf("client %d: read back %d after writing %d", c, resp.Value, i)
					return
				}
				// The packet count only grows, and only between requests.
				resp := do(&Request{Op: "map_lookup", Path: path, UID: 1000, Key: 0})
				if resp.Value < seen || resp.Value > steps*perStep {
					t.Errorf("client %d: packet count %d after %d", c, resp.Value, seen)
					return
				}
				seen = resp.Value
			}
		}()
	}
	for range steps {
		tick <- time.Time{}
	}
	wg.Wait()
	stopServing()

	if resp := srv.Handle(&Request{Op: "map_lookup", Path: path, UID: 1000, Key: 0}); resp.Value != steps*perStep {
		t.Fatalf("policy counted %d packets, want %d", resp.Value, steps*perStep)
	}
	for c := range clients {
		if resp := srv.Handle(&Request{Op: "map_lookup", Path: path, UID: 1000, Key: uint32(1 + c)}); resp.Value != updates {
			t.Fatalf("client %d's slot = %d, want %d", c, resp.Value, updates)
		}
	}
	if got := snapshotOf(t, srv).Links[0].Runs; got != steps*perStep {
		t.Fatalf("link runs = %d, want %d", got, steps*perStep)
	}
}

// diamonds is the 40-instruction program of the ebpf package's
// TestVerifierBudgetOnALoopFreeProgram as .syr source: 18 diamonds on an
// unknown scalar, 2^18 paths and no loop, which the verifier rejects only
// once it has spent its whole budget.
func diamonds() string {
	var b strings.Builder
	b.WriteString("call get_prandom_u32\nr6 = 0\n")
	for k := range 18 {
		fmt.Fprintf(&b, "if r0 <= %d goto d%d\nr6 += 1\nd%d:\n", k, k, k)
	}
	b.WriteString("r0 = 0\nexit\n")
	return b.String()
}

// TestDeployVerifiesOffTheLoop: a deploy that arrives over the socket is
// verified on its connection's goroutine, not on the loop that runs the
// host. The 18-diamond program holds the verifier for its whole budget;
// ticks posted meanwhile are applied first, so the loop applies the
// rejection after them, at the instant they advanced the host to.
func TestDeployVerifiesOffTheLoop(t *testing.T) {
	h := newHost(t, 1, 0)
	h.d.RegisterApp(1, 1000, 9000)
	h.stack.NewUDPSocket(9000, 1, "w")
	srv := NewServer(h.d)
	path := filepath.Join(t.TempDir(), "syrupd.sock")
	if err := srv.ListenUnix(path); err != nil {
		t.Fatal(err)
	}
	tick, stop := serving(srv, func() { h.Eng.RunUntil(h.Eng.Now() + sim.Millisecond) })
	defer stop()
	c, err := Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reply := make(chan *Response, 1)
	go func() {
		resp, _ := c.Do(&Request{Op: "deploy", App: 1, Hook: "socket_select", Source: diamonds()})
		reply <- resp
	}()
	time.Sleep(5 * time.Millisecond) // the deploy reaches the server first
	const ticks = 3
	for range ticks {
		tick <- time.Time{}
	}
	resp := <-reply
	if !strings.Contains(resp.Error, "too many paths") {
		t.Fatalf("deploy reply = %+v, want the verifier's budget rejection", resp)
	}
	if want := int64(ticks * sim.Millisecond); resp.AtNS != want {
		t.Fatalf("rejection applied at %d ns, want %d: the ticks waited for the verification", resp.AtNS, want)
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
	_, stop := serving(srv, nil)
	defer stop()

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

// TestServerRefusesAnOverlongLine: a request line the scanner cannot hold
// gets an error reply naming the limit before the connection closes,
// rather than a bare EOF.
func TestServerRefusesAnOverlongLine(t *testing.T) {
	h := newHost(t, 1, 0)
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

	_, err = c.Do(&Request{Op: "deploy", Source: strings.Repeat("x", maxLine+1)})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shorter than %d bytes", maxLine)) {
		t.Fatalf("over-long line: err = %v, want the limit named", err)
	}
	if _, err := c.Do(&Request{Op: "list_policies"}); err == nil {
		t.Fatal("the connection outlived an over-long line")
	}
}

// TestClosedServerRepliesWithAnError: with no loop serving the host, an
// in-process Do and a socket connection both wait in the mailbox. Close
// must answer both with an error, not leave them hanging, and so must
// every request after it.
func TestClosedServerRepliesWithAnError(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	path := filepath.Join(t.TempDir(), "syrupd.sock")
	if err := srv.ListenUnix(path); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, 3)
	go func() {
		_, err := srv.Do(&Request{Op: "list_policies"})
		errs <- err
	}()
	go func() {
		_, err := c.Do(&Request{Op: "list_policies"})
		errs <- err
	}()
	// Give both time to block in the mailbox. One that has not yet meets
	// the closed server instead, which must answer it the same way, as it
	// does the third call, posted after Close.
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	go func() {
		_, err := srv.Do(&Request{Op: "list_policies"})
		errs <- err
	}()
	for range 3 {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "server closed") {
				t.Fatalf("a request to a closed server: err = %v, want server closed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a request to a closed server hangs")
		}
	}
}
