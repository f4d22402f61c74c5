package main

import (
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"syrup"
	"syrup/internal/adapt"
	"syrup/internal/experiments"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
	"syrup/internal/workload"
)

// TestDemoForgetsUnansweredRequests drives the daemon's demo world above
// saturation with shed deployed through the control protocol, so requests
// are lost both to the policy's DROP and to full socket queues. The demo
// must account for every one of them
// (offered = completed + unanswered) while what it reports as in flight
// stays what the host can physically hold: a daemon that remembered each
// unanswered request would report tens of thousands in flight by the end
// and keep growing. Its memory stays bounded too: between 600 and 1200
// virtual ms the live heap grows by less than 1 MiB, where a request table
// that pinned a 32 KiB page for every 4096 ids holding a dropped request
// would grow by several.
func TestDemoForgetsUnansweredRequests(t *testing.T) {
	const threads = 6
	d := newDemo(syrup.HostConfig{Telemetry: &obs.Config{Period: sim.Millisecond}}, threads, 1_200_000,
		[]workload.Class{
			{Name: "LS", Weight: 0.5, Type: policy.ReqGET, UserID: 1},
			{Name: "BE", Weight: 0.5, Type: policy.ReqGET, UserID: 2},
		})
	server := syrupd.NewServer(d.Host.Daemon)
	if resp := server.Handle(&syrupd.Request{
		Op: "deploy", App: 1, Hook: "socket_select", Policy: policy.NameShed,
		Defines: map[string]int64{"NUM_THREADS": threads, "SHED_USER": 2},
	}); !resp.OK {
		t.Fatalf("deploy shed: %s", resp.Error)
	}

	// Everything the host can hold: per RX queue a full ring (the NIC's
	// default 1024 descriptors) and as many packets again between the ring
	// and a socket (protocol processing queues behind the ring's softirq
	// work on the same core), and per worker a full socket queue plus the
	// request being served.
	held := float64(threads * (2*1024 + d.Host.Stack.SocketQueueCap() + 1))
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var heapAt600 uint64
	for i := 0; i < 120; i++ {
		if i == 60 {
			heapAt600 = heap()
		}
		d.Host.RunFor(10 * sim.Millisecond)
		var got float64
		for _, s := range server.Handle(&syrupd.Request{Op: "snapshot"}).Snapshot.Series {
			if s.Name == "inflight" {
				_, got, _ = obs.LastPoint(s)
			}
		}
		if got > held {
			t.Fatalf("at %v the snapshot op reports %.0f in flight; the host can hold %.0f", d.Host.Now(), got, held)
		}
	}

	if grown := int64(heap()) - int64(heapAt600); grown >= 1<<20 {
		t.Fatalf("the live heap grew by %d B between 600 and 1200 virtual ms, want < 1 MiB", grown)
	}

	all := d.Gen.Result().All
	if all.Offered != all.Completed+all.TotalDrops() {
		t.Fatalf("offered %d != completed %d + unanswered %d", all.Offered, all.Completed, all.TotalDrops())
	}
	if all.Completed == 0 || float64(all.TotalDrops()) < 10*held {
		t.Fatalf("completed %d, unanswered %d: want a live server and far more unanswered requests than the host holds (%.0f)",
			all.Completed, all.TotalDrops(), held)
	}
	if d.Host.Stack.Stats.SocketDrops == 0 || d.Host.Daemon.Dropped() == d.Host.Stack.Stats.SocketDrops {
		t.Fatalf("drops %d, %d of them at the socket queues: want both the policy and the queues to have dropped",
			d.Host.Daemon.Dropped(), d.Host.Stack.Stats.SocketDrops)
	}
	for _, s := range d.Host.Obs.Store().Snapshot() {
		if s.Name != "inflight" {
			continue
		}
		for i, v := range s.V {
			if v > held {
				t.Fatalf("inflight gauge read %.0f at %dns", v, s.T[i])
			}
		}
		return
	}
	t.Fatal("no inflight series on the demo's sampler")
}

// TestDaemonReplaysItsOps: a live daemon's run is its seed plus the ops
// that changed it. The traced demo is served on a Unix socket and advanced
// in 10 ms slices by Serve, as main serves it. One client sends every op
// that changes the host while two others race it with snapshot and
// map_lookup reads. Replaying that client's (at_ns, request) pairs on a
// fresh demo — run to each at_ns, then Handle — must end, at the live
// run's last instant, with the same client results, counters and spans.
func TestDaemonReplaysItsOps(t *testing.T) {
	const threads, slice = 4, 10 * sim.Millisecond
	traced := func() *demo {
		return newDemo(syrup.HostConfig{
			Trace:     syrup.NewTraceRecorder(1 << 16),
			Telemetry: &obs.Config{Period: sim.Millisecond},
		}, threads, 20_000, []workload.Class{
			{Name: "LS", Weight: 0.5, Type: policy.ReqGET, UserID: 1},
			{Name: "BE", Weight: 0.5, Type: policy.ReqGET, UserID: 2},
		})
	}
	defines := map[string]int64{"NUM_THREADS": threads, "SHED_USER": 2}
	burn := adapt.Config{Period: sim.Millisecond, Rules: []adapt.Rule{{
		Name: "ls_burn",
		Detect: obs.SLO{Name: "ls_p99", Series: "latency_LS_win_p99_us", Target: 1, Budget: 0.5,
			Short: 3 * sim.Millisecond, Long: 6 * sim.Millisecond},
		OnFire:  adapt.ActionSpec{App: 1, Hook: "socket_select", Policy: policy.NameRoundRobin, Defines: defines},
		Sustain: 2,
	}}}
	ops := []syrupd.Request{
		{Op: "register_app", App: 2, UID: 1002, Ports: []uint16{9001}},
		{Op: "deploy", App: 1, Hook: "socket_select", Policy: policy.NameShed, Defines: defines},
		{Op: "map_update", Path: "/syrup/1/shed_rr", UID: 1000, Key: 0, Value: 3},
		{Op: "adapt_enable", AdaptConfig: &burn},
		{Op: "adapt_disable"},
		{Op: "revoke_app", App: 1},
	}

	live := traced()
	srv := syrupd.NewServer(live.Host.Daemon)
	path := filepath.Join(t.TempDir(), "syrupd.sock")
	if err := srv.ListenUnix(path); err != nil {
		t.Fatal(err)
	}
	// stepped holds a token once a slice has run since it was last taken,
	// so taking two waits for at least one fresh slice.
	stepped := make(chan struct{}, 1)
	nextSlice := func() { <-stepped; <-stepped }
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	served := make(chan struct{})
	go func() {
		srv.Serve(ticker.C, func() {
			live.Host.RunFor(slice)
			select {
			case stepped <- struct{}{}:
			default:
			}
		})
		close(served)
	}()

	dial := func() *syrupd.Client {
		c, err := syrupd.Dial(path)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for _, read := range []syrupd.Request{
		{Op: "snapshot"},
		{Op: "map_lookup", Path: "/syrup/1/shed_rr", UID: 1000, Key: 0},
	} {
		c := dial()
		defer c.Close()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Do(&read) // a map_lookup before the deploy or after the revoke fails
				}
			}
		}()
	}
	c := dial()
	defer c.Close()
	// The latency series the controller reads fill from the end of the
	// generator's 200 ms warm-up: send the first op after it.
	for range 20 {
		nextSlice()
	}
	replies := make([]*syrupd.Response, len(ops))
	for i := range ops {
		nextSlice()
		resp, err := c.Do(&ops[i])
		if err != nil {
			t.Fatalf("%s: %v", ops[i].Op, err)
		}
		replies[i] = resp
	}
	nextSlice()
	close(stop)
	readers.Wait()
	srv.Close()
	<-served
	end := live.Host.Now()
	if len(live.Host.Daemon.AdaptController().History()) == 0 {
		t.Fatal("the controller never acted: the replay would not cover its swap")
	}
	var at int64 // each op lands in a slice of its own, inside the run
	for i, r := range replies {
		if r.AtNS <= at || r.AtNS >= int64(end) {
			t.Fatalf("%s applied at %d ns, after an op at %d ns, in a run that ended at %d ns", ops[i].Op, r.AtNS, at, end)
		}
		at = r.AtNS
	}

	again := traced()
	owner := syrupd.NewServer(again.Host.Daemon)
	for i := range ops {
		again.Host.Eng.RunUntil(sim.Time(replies[i].AtNS))
		if resp := owner.Handle(&ops[i]); resp.OK != replies[i].OK {
			t.Fatalf("%s at %d ns: replay ok=%v %q, live ok=%v", ops[i].Op, replies[i].AtNS, resp.OK, resp.Error, replies[i].OK)
		}
	}
	again.Host.Eng.RunUntil(end)

	if a, b := experiments.StatsDigest(live.Gen.Result()), experiments.StatsDigest(again.Gen.Result()); a != b {
		t.Errorf("client results differ:\nlive   %s\nreplay %s", a, b)
	}
	if a, b := live.Host.Daemon.Counters(), again.Host.Daemon.Counters(); !slices.Equal(a, b) {
		t.Errorf("counters differ:\nlive   %v\nreplay %v", a, b)
	}
	a, b := live.Host.Tracer, again.Host.Tracer
	if a.Total() == 0 || a.Total() != b.Total() || !slices.Equal(a.Spans(), b.Spans()) {
		t.Errorf("span streams differ: %d spans live, %d replayed", a.Total(), b.Total())
	}
}
