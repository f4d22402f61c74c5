package syrup_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/ebpf"
	"syrup/internal/experiments"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/nic"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
	"syrup/internal/workload"
)

func TestDeployPolicyFile(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{})
	app, err := host.RegisterApp(1, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	app.NewUDPSocket(9000, "w")

	path := filepath.Join(t.TempDir(), "pass.syr")
	if err := os.WriteFile(path, []byte("r0 = PASS\nexit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dep, err := app.DeployPolicyFile(path, syrup.HookSocketSelect, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Program.Len() != 2 || dep.SourceLines != 2 {
		t.Fatalf("deployment: %+v", dep)
	}
	if _, err := app.DeployPolicyFile("/does/not/exist.syr", syrup.HookSocketSelect, nil); err == nil {
		t.Fatal("missing file deployed")
	}
}

func TestDeployThreadPolicyViaFacade(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{NumCPUs: 3})
	app, err := host.RegisterApp(1, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := app.DeployThreadPolicy(&policy.FIFO{}, 2, []int{0, 1}, ghost.Config{})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 3; i++ {
		th := host.Machine.NewThread("w", 1, host.Machine.AffinityAll(), func(th *kernel.Thread) {
			th.Exec(10*sim.Microsecond, func() { done++; th.Exit() })
		})
		if err := agent.Register(th); err != nil {
			t.Fatal(err)
		}
		th.Wake()
	}
	host.Run()
	if done != 3 {
		t.Fatalf("ghost ran %d/3 threads via facade", done)
	}
}

func TestRegisterXSKViaFacade(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{NICQueues: 1})
	app, err := host.RegisterApp(1, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	sock, idx := app.RegisterXSK(9000, 0, 64, "xsk0")
	if idx != 0 || sock == nil {
		t.Fatalf("xsk registration: %v %d", sock, idx)
	}
	if _, err := app.DeployPolicy("r0 = 0\nexit\n", syrup.HookXDPDrv, nil); err != nil {
		t.Fatal(err)
	}
	host.NIC.Receive(testPacket(1, 9000))
	host.Run()
	if sock.Len() != 1 {
		t.Fatalf("xsk did not receive: %d", sock.Len())
	}
}

func TestCreateMapAndRunFor(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{})
	app, err := host.RegisterApp(1, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := app.CreateMap(ebpf.MapSpec{Name: "x", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateElem(1, 42); err != nil {
		t.Fatal(err)
	}
	if m.Raw() == nil {
		t.Fatal("raw accessor nil")
	}
	// Duplicate creation fails.
	if _, err := app.CreateMap(ebpf.MapSpec{Name: "x", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 2}); err == nil {
		t.Fatal("duplicate map created")
	}
	// MapOpen with the wrong uid (another app handle) fails.
	app2, err := host.RegisterApp(2, 2000, 9001)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app2.MapOpen("/syrup/1/x"); err == nil {
		t.Fatal("foreign app opened a private map")
	}
	// RunFor advances virtual time even with an empty queue.
	before := host.Now()
	host.RunFor(5 * syrup.Millisecond)
	if host.Now() != before+5*syrup.Millisecond {
		t.Fatalf("RunFor: %v -> %v", before, host.Now())
	}
	if app.ID() != 1 {
		t.Fatalf("app id = %d", app.ID())
	}
}

func TestRegisterAppErrorsViaFacade(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{})
	if _, err := host.RegisterApp(1, 1000, 9000); err != nil {
		t.Fatal(err)
	}
	if _, err := host.RegisterApp(2, 2000, 9000); err == nil {
		t.Fatal("port conflict accepted")
	}
	// Deploy on an unverifiable policy errors through the facade.
	app, _ := host.RegisterApp(3, 3000, 9100)
	app.NewUDPSocket(9100, "w")
	unsafe := "r2 = *(u64 *)(r1 + 0)\nr0 = *(u64 *)(r2 + 0)\nexit\n"
	if _, err := app.DeployPolicy(unsafe, syrup.HookSocketSelect, nil); err == nil {
		t.Fatal("unsafe policy deployed via facade")
	}
	if _, err := app.DeployBuiltin("nope", syrup.HookSocketSelect, nil); err == nil {
		t.Fatal("unknown builtin deployed")
	}
}

// TestCountersPerHost: two hosts in one process with the same app, port
// and policy, traffic into one only. Every counter surface of the idle
// host — the stats op, the metrics op, Daemon.Counters — reports its own
// zeros, not the busy host's runs, and each host's listing agrees with its
// own links.
func TestCountersPerHost(t *testing.T) {
	const runsKey, faultsKey = "ebpf_hook_runs_socket_select_9000", "ebpf_hook_faults_socket_select_9000"
	build := func(id int) (*syrup.Host, *syrupd.Server) {
		host := syrup.NewHost(syrup.HostConfig{HostID: id, Telemetry: &obs.Config{Counters: true}})
		app, err := host.RegisterApp(1, 1000, 9000)
		if err != nil {
			t.Fatal(err)
		}
		app.NewUDPSocket(9000, "w")
		if _, err := app.DeployPolicy("r0 = 0\nexit\n", syrup.HookSocketSelect, nil); err != nil {
			t.Fatal(err)
		}
		return host, syrupd.NewServer(host.Daemon)
	}
	busy, busySrv := build(0)
	idle, idleSrv := build(1)
	for i := 0; i < 100; i++ {
		busy.NIC.Receive(testPacket(uint64(i), 9000))
	}
	busy.RunFor(2 * sim.Millisecond)
	idle.RunFor(2 * sim.Millisecond)

	for name, tc := range map[string]struct {
		host *syrup.Host
		srv  *syrupd.Server
		runs uint64
	}{"busy": {busy, busySrv, 100}, "idle": {idle, idleSrv, 0}} {
		stats := tc.srv.Handle(&syrupd.Request{Op: "stats"}).Stats
		text := tc.srv.Handle(&syrupd.Request{Op: "metrics"}).Text
		counters := map[string]uint64{}
		for _, c := range tc.host.Daemon.Counters() {
			counters[c.Name] = c.Value
			if strings.HasPrefix(c.Name, "ebpf_hook_runs_") && c.Name != runsKey && c.Value != 0 {
				t.Errorf("%s: %s = %d on a point that saw no policy run", name, c.Name, c.Value)
			}
			if v, ok := stats[c.Name]; !ok || v != float64(c.Value) {
				t.Errorf("%s: stats[%s] = %v (present %v), Counters says %d", name, c.Name, v, ok, c.Value)
			}
			if line := fmt.Sprintf("syrup_%s %d ", c.Name, c.Value); !strings.Contains(text, line) {
				t.Errorf("%s: metrics op lacks %q", name, line)
			}
		}
		if counters[runsKey] != tc.runs {
			t.Errorf("%s: %s = %d, want %d", name, runsKey, counters[runsKey], tc.runs)
		}
		links := tc.host.Daemon.Links()
		if len(links) != 1 || links[0].Runs != counters[runsKey] || links[0].Faults != counters[faultsKey] {
			t.Errorf("%s: links %+v disagree with counters runs=%d faults=%d", name, links, counters[runsKey], counters[faultsKey])
		}
		// The sampler folded this host's deltas, nobody else's.
		var folded float64
		for _, s := range tc.host.Obs.Store().Snapshot() {
			if s.Name == runsKey+"_delta" {
				for _, v := range s.V {
					folded += v
				}
			}
		}
		if folded != float64(tc.runs) {
			t.Errorf("%s: sampled %s_delta sums to %v, want %d", name, runsKey, folded, tc.runs)
		}
	}
}

// TestBatchFieldsInert proves the three names kept only for benchmark/ —
// HostConfig.Batch, nic.Config.Budget, (*nic.NIC).SetBatchDeliver — change
// nothing: a MICA host steering at the NIC and again at XDP produces the
// same digest, layer stats and event count whether or not Batch is set,
// and a bare NIC built with and without a Budget delivers the same packets
// on the same queues at the same instants, never calling the installed
// batch callback.
func TestBatchFieldsInert(t *testing.T) {
	const threads = 4
	run := func(cfg syrup.HostConfig) (string, *syrup.Host) {
		cfg.Seed, cfg.NumCPUs, cfg.NICQueues = 7, threads, threads
		host, app := syrup.MustHostApp(cfg, 2, 1001, 9100)
		gen := workload.New(host.Eng, host.NIC, workload.Config{
			Rate:    800_000,
			DstPort: 9100,
			Classes: []workload.Class{
				{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
				{Name: "PUT", Weight: 0.5, Type: policy.ReqPUT},
			},
			KeySpace: 1 << 16,
			Warmup:   2 * syrup.Millisecond,
			Measure:  10 * syrup.Millisecond,
			Drain:    5 * syrup.Millisecond,
		})
		srv := mica.NewServer(host.Eng, host.Machine, host.Stack, mica.Config{
			Port: 9100, App: 2, NumThreads: threads, Mode: mica.ModeSyrupHW,
			OnComplete: gen.Complete,
		})
		defines := map[string]int64{"NUM_EXECUTORS": threads}
		if _, err := app.DeployBuiltin(policy.NameMicaHash, syrup.HookXDPOffload, defines); err != nil {
			t.Fatal(err)
		}
		if _, err := app.DeployPolicy("r0 = 0\nexit\n", syrup.HookXDPSkb, nil); err != nil {
			t.Fatal(err)
		}
		srv.Start()
		return experiments.StatsDigest(gen.RunToCompletion()), host
	}
	digest, host := run(syrup.HostConfig{Batch: 0})
	digest64, host64 := run(syrup.HostConfig{Batch: 64})
	if host.NIC.Stats.OffloadRuns == 0 || host.Stack.Stats.XSKDelivered == 0 {
		t.Fatalf("run did not exercise offload and XDP: NIC %+v, stack %+v", host.NIC.Stats, host.Stack.Stats)
	}
	if digest64 != digest {
		t.Errorf("digest diverged:\n--- unset\n%s--- set\n%s", digest, digest64)
	}
	if host64.NIC.Stats != host.NIC.Stats || host64.Stack.Stats != host.Stack.Stats || host64.Eng.Fired() != host.Eng.Fired() {
		t.Errorf("layer stats diverged: NIC %+v vs %+v, stack %+v vs %+v, fired %d vs %d",
			host.NIC.Stats, host64.NIC.Stats, host.Stack.Stats, host64.Stack.Stats, host.Eng.Fired(), host64.Eng.Fired())
	}

	bare := func(budget int) []string {
		eng := sim.New(1)
		var got []string
		dev := nic.New(eng, nic.Config{Queues: 2, RingSize: 8, Budget: budget}, func(q int, pkt *nic.Packet) {
			got = append(got, fmt.Sprintf("%d q%d @%d", pkt.ID, q, eng.Now()))
		})
		dev.SetBatchDeliver(func(int, []*nic.Packet) { t.Error("batch callback invoked") })
		for i := 0; i < 100; i++ {
			dev.Receive(testPacket(uint64(i), 9000+uint16(i%3)))
		}
		eng.Run()
		return append(got, fmt.Sprintf("%+v fired=%d", dev.Stats, eng.Fired()))
	}
	unset, set := bare(0), bare(64)
	if len(unset) < 2 || !slices.Equal(unset, set) {
		t.Fatalf("a bare NIC with Budget 64 diverged from one without:\n%v\n%v", unset, set)
	}
}
