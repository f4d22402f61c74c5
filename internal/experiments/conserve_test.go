package experiments

import (
	"fmt"
	"strings"
	"testing"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// TestConservedCatchesAnUncountedPacket: the check finish runs after every
// run passes a finished run as it is, and fails it, naming the host and the
// equation, once one count is planted: a packet the NIC received that no
// layer accounts for, a datagram the stack delivered without processing
// it, client requests lost beyond everything the host and the app dropped
// or the host still holds, a drop site that frees its packet instead of calling Drop (the
// host counts a drop the client never hears of), and a policy fault on a
// host with no fault plan.
func TestConservedCatchesAnUncountedPacket(t *testing.T) {
	pt := fig2Slice(PolicyRoundRobin, RunConfig{})
	pt.Run.Windows = Windows{Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond, Drain: 5 * sim.Millisecond}
	run := runRocksPoint(pt)
	host := run.Host
	failure := func(res *workload.Result) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		conserve(hostRun{host: host, gen: run.Gen, app: run.Srv}, res)
		return
	}
	if msg := failure(run.Result); msg != "<nil>" {
		t.Fatalf("the finished run fails as it is: %s", msg)
	}

	lost := *run.Result.All
	extra := host.Daemon.Dropped() + run.Srv.Dropped() + host.Daemon.Held() + 1
	lost.Offered, lost.Unanswered = lost.Offered+extra, lost.Unanswered+extra
	for _, c := range []struct {
		plant, want string
		count       *uint64
		res         *workload.Result
	}{
		{"one extra NIC Received", "nic_received", &host.NIC.Stats.Received, run.Result},
		{"one extra UDPDelivered", "netstack_processed", &host.Stack.Stats.UDPDelivered, run.Result},
		{"client requests lost past the host", "unanswered", new(uint64), &workload.Result{All: &lost}},
	} {
		*c.count++
		msg := failure(c.res)
		*c.count--
		if !strings.Contains(msg, host.Name+":") || !strings.Contains(msg, c.want) || !strings.Contains(msg, "not conserved") {
			t.Errorf("%s: conservation reports %q, want the host, the equation and %q", c.plant, msg, c.want)
		}
	}

	// The planted drop site: an XDP drop that frees its packet. Every host
	// equation still balances; only the loss identity sees it.
	host.NIC.Stats.Received++
	host.NIC.Stats.DroppedByXDP++
	host.NIC.NewPacket().Free()
	msg := failure(run.Result)
	host.NIC.Stats.Received--
	host.NIC.Stats.DroppedByXDP--
	if !strings.Contains(msg, host.Name+":") || !strings.Contains(msg, "losses not conserved") {
		t.Errorf("a drop site that frees its packet: conservation reports %q, want the host and the loss identity", msg)
	}

	// A verified program that tail-calls itself past MaxTailCalls faults on
	// every run. One run at the host's XDP point is a fault nothing injected.
	if host.Faults != nil {
		t.Fatal("the host has a fault plan")
	}
	progs, err := ebpf.NewMap(ebpf.MapSpec{Name: "runaway_progs", Type: ebpf.MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	table := ebpf.NewMapTable()
	runaway, err := ebpf.Load("runaway", append(ebpf.LoadMapFD(ebpf.R2, table.Register(progs)),
		ebpf.MovImm(ebpf.R3, 0),
		ebpf.Call(ebpf.HelperTailCall),
		ebpf.MovImm(ebpf.R0, 0),
		ebpf.Exit(),
	), ebpf.LoadOptions{MapTable: table})
	if err != nil {
		t.Fatal(err)
	}
	if err := progs.UpdateProg(0, runaway); err != nil {
		t.Fatal(err)
	}
	xdp := host.Stack.XDP()
	xdp.Set(runaway)
	if v := xdp.Run(hook.Input{}); !v.Faulted {
		t.Fatalf("the runaway tail call did not fault: %+v", v)
	}
	xdp.Set(nil)
	if msg := failure(run.Result); !strings.Contains(msg, host.Name+":") || !strings.Contains(msg, "ebpf_hook_faults 1") {
		t.Errorf("one policy fault on an unarmed host: conservation reports %q, want the host and ebpf_hook_faults 1", msg)
	}
}

// TestServerDropsPuts: the RocksDB store is a preloaded key space nothing
// writes, so a PUT sent to the server is counted Malformed and dropped with
// Packet.Drop, and the run passes the check finish makes after every run:
// each unanswered PUT is one the app dropped, and every request the client
// lost is one the host or the app dropped.
func TestServerDropsPuts(t *testing.T) {
	host, app := syrup.MustHostApp(syrup.HostConfig{Seed: 3, NumCPUs: 2, NICQueues: 2}, rocksApp, rocksUID, rocksPort)
	load := RunConfig{Windows: Windows{Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond, Drain: 5 * sim.Millisecond}}.load(50_000)
	load.Classes = []workload.Class{
		{Name: "GET", Weight: 0.8, Type: policy.ReqGET},
		{Name: "PUT", Weight: 0.2, Type: policy.ReqPUT},
	}
	w := WireRocksDB(host, app, load, rocksdb.Config{NumThreads: 2, PinToCores: true})
	w.Srv.Start()
	res := finish(1, hostRun{host: host, gen: w.Gen, app: w.Srv})[0]
	get, put := res.PerClass["GET"], res.PerClass["PUT"]
	if put.Offered == 0 || put.Completed != 0 || put.Unanswered != put.Offered {
		t.Fatalf("PUTs offered %d, completed %d, unanswered %d: want every PUT unanswered", put.Offered, put.Completed, put.Unanswered)
	}
	if get.Completed == 0 || get.Unanswered != 0 {
		t.Fatalf("GETs completed %d, unanswered %d: want every GET answered", get.Completed, get.Unanswered)
	}
	if w.Srv.Malformed < put.Offered {
		t.Fatalf("server Malformed %d, %d PUTs measured: want every PUT counted Malformed", w.Srv.Malformed, put.Offered)
	}
	if w.Srv.ProcessedGET != w.Srv.Store().Gets {
		t.Fatalf("ProcessedGET %d, store Gets %d: a PUT reached the store", w.Srv.ProcessedGET, w.Srv.Store().Gets)
	}
}

// TestRunsAllocateNoPacketWhileTimed: every host of the ledger's four
// shapes, and of the golden fig8 slice, ends its run on the one packet
// slab its NIC allocated at construction, so no run grows its free list
// while it is timed. The shapes are the golden get_rr slice; a scan+ghOSt
// point and a batch-64 mica point at the ledger's rates; the golden 4-host
// fleet; and the adapt demo's controller host, which the ledger's fleet
// runs four of through the same burst. The mica and controller hosts hold
// 61 and 73 packets at their peak, so a 32-packet slab would not do.
func TestRunsAllocateNoPacketWhileTimed(t *testing.T) {
	scanGhost := fig8Slice(RunConfig{})
	scanGhost.Load, scanGhost.Flows = 150_000, 50
	scanGhost.Classes = []workload.Class{
		{Name: "GET", Weight: 0.995, Type: policy.ReqGET},
		{Name: "SCAN", Weight: 0.005, Type: policy.ReqSCAN},
	}
	adaptive, _ := runAdaptivePoint(DefaultAdaptive(), PolicyRoundRobin, true)
	hosts := map[string]*syrup.Host{
		"fig2/round_robin":            runRocksPoint(fig2Slice(PolicyRoundRobin, RunConfig{})).Host,
		"scan+ghost":                  runRocksPoint(scanGhost).Host,
		"fig8/scan_avoid+threadsched": runRocksPoint(fig8Slice(RunConfig{})).Host,
		"mica/batch64":                runBatchedMica(t),
		"adapt/demo/adaptive":         adaptive.Host,
	}
	fleet, err := RunCluster(fleetRocks(RunConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fleet.Members {
		hosts["fleet/rocksdb-4/"+m.Name] = m.host
	}
	for name, host := range hosts {
		if got := counter(host, "nic_packet_slabs"); got != 1 {
			t.Errorf("%s: nic_packet_slabs = %d, want 1", name, got)
		}
	}
}

// runBatchedMica runs the fig9 slice's mica_hash XDP host in the ledger's
// mica_mix_xdp shape: a NIC that hands packets up 64 at a time, and a
// GET/PUT half mix at 2 M rps.
func runBatchedMica(t *testing.T) *syrup.Host {
	pt := fig9Slice(mica.ModeSyrupSW, RunConfig{})
	host, app := syrup.MustHostApp(syrup.HostConfig{Seed: micaSeed, NumCPUs: micaN, NICQueues: micaN, Batch: 64}, micaApp, micaUID, micaPort)
	load := pt.Run.load(2_000_000)
	load.Classes = micaMix(0.5)
	gen, srv := wireMICA(host, load, mica.Config{Mode: mica.ModeSyrupSW})
	if _, err := app.DeployPolicy(policy.MustSource(policy.NameMicaHash), syrup.HookXDPSkb, map[string]int64{"NUM_EXECUTORS": micaN}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	finish(1, hostRun{host: host, gen: gen, app: srv})
	return host
}
