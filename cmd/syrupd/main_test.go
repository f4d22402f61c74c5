package main

import (
	"testing"

	"syrup"
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
// and keep growing.
func TestDemoForgetsUnansweredRequests(t *testing.T) {
	const threads = 6
	d := newDemo(syrup.HostConfig{Telemetry: &obs.Config{Period: sim.Millisecond}}, threads, 1_200_000,
		[]workload.Class{
			{Name: "LS", Weight: 0.5, Type: policy.ReqGET, UserID: 1},
			{Name: "BE", Weight: 0.5, Type: policy.ReqGET, UserID: 2},
		})
	server := syrupd.NewServer(d.Host.Daemon)
	server.StatsFunc = d.stats
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
	for i := 0; i < 60; i++ {
		d.Host.RunFor(10 * sim.Millisecond)
		stats := server.Handle(&syrupd.Request{Op: "stats"}).Stats
		if got := stats["inflight"]; got > held {
			t.Fatalf("at %v the stats op reports %.0f in flight; the host can hold %.0f", d.Host.Now(), got, held)
		}
	}

	all := d.Gen.Result().All
	if all.Offered != all.Completed+all.TotalDrops() {
		t.Fatalf("offered %d != completed %d + unanswered %d", all.Offered, all.Completed, all.TotalDrops())
	}
	if all.Completed == 0 || float64(all.TotalDrops()) < 10*held {
		t.Fatalf("completed %d, unanswered %d: want a live server and far more unanswered requests than the host holds (%.0f)",
			all.Completed, all.TotalDrops(), held)
	}
	if d.Host.Stack.Stats.SocketDrops == 0 || d.dropped() == d.Host.Stack.Stats.SocketDrops {
		t.Fatalf("drops %d, %d of them at the socket queues: want both the policy and the queues to have dropped",
			d.dropped(), d.Host.Stack.Stats.SocketDrops)
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
