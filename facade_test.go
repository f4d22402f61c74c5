package syrup_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/ebpf"
	"syrup/internal/experiments"
	"syrup/internal/faults"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/nic"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/storage"
	"syrup/internal/syrupd"
	"syrup/internal/trace"
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
	if dep.Program().Len() != 2 || dep.Verified.SourceLines() != 2 {
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
// and policy, traffic into one only. Both counter surfaces of the idle
// host — the snapshot op and Daemon.Counters — report its own zeros, not
// the busy host's runs, and each host's listing agrees with its own links.
func TestCountersPerHost(t *testing.T) {
	const runsKey, faultsKey = "ebpf_hook_runs_socket_select_9000", "ebpf_hook_faults_socket_select_9000"
	build := func(id int) (*syrup.Host, *syrupd.Server) {
		host := syrup.NewHost(syrup.HostConfig{HostID: id, Telemetry: &obs.Config{}})
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
		listed := tc.host.Daemon.Counters()
		if snap := tc.srv.Handle(&syrupd.Request{Op: "snapshot"}).Snapshot; !slices.Equal(snap.Counters, listed) {
			t.Errorf("%s: snapshot counters %v, Counters says %v", name, snap.Counters, listed)
		}
		counters := map[string]uint64{}
		for _, c := range listed {
			counters[c.Name] = c.Value
			if strings.HasPrefix(c.Name, "ebpf_hook_runs_") && c.Name != runsKey && c.Value != 0 {
				t.Errorf("%s: %s = %d on a point that saw no policy run", name, c.Name, c.Value)
			}
		}
		if counters[runsKey] != tc.runs {
			t.Errorf("%s: %s = %d, want %d", name, runsKey, counters[runsKey], tc.runs)
		}
		links := tc.host.Daemon.Links()
		if len(links) != 1 || links[0].Runs != counters[runsKey] || links[0].Faults != counters[faultsKey] {
			t.Errorf("%s: links %+v disagree with counters runs=%d faults=%d", name, links, counters[runsKey], counters[faultsKey])
		}
	}
}

// TestCountersCoverEveryStatsField: every count a layer keeps is a row of
// its host's Daemon.Counters. For each uint64 field of nic.Stats,
// netstack.Stats, storage.Stats, a ghOSt agent and a CPU, bumping the field
// on a live host moves exactly one row, by the bump, so a field added
// without a row fails here. The fixture hides one row from the listing.
func TestCountersCoverEveryStatsField(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{NumCPUs: 2})
	dev := host.AttachStorage(storage.Config{})
	app, err := host.RegisterApp(1, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := app.DeployThreadPolicy(&policy.FIFO{}, 0, []int{1}, ghost.Config{})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fixture", func(t *testing.T) {
		hideRing := func() []metrics.CounterValue {
			return slices.DeleteFunc(host.Daemon.Counters(), func(c metrics.CounterValue) bool { return c.Name == "nic_dropped_ring" })
		}
		if got := uncounted(&host.NIC.Stats, hideRing); !slices.Equal(got, []string{"DroppedRing moved 0 rows"}) {
			t.Fatalf("uncounted = %q, want DroppedRing alone", got)
		}
	})

	for name, owner := range map[string]any{
		"nic.Stats": &host.NIC.Stats, "netstack.Stats": &host.Stack.Stats, "storage.Stats": &dev.Stats,
		"ghost.Agent": agent, "kernel.CPU": host.Machine.CPU(1),
	} {
		if bad := uncounted(owner, host.Daemon.Counters); len(bad) != 0 {
			t.Errorf("%s: %q", name, bad)
		}
	}
}

// uncounted bumps, one at a time, each exported uint64 field of the struct
// owner points to, and lists the fields for which read does not report
// exactly one row moving by the bump.
func uncounted(owner any, read func() []metrics.CounterValue) []string {
	const bump = 7
	rows := func() map[string]uint64 {
		m := map[string]uint64{}
		for _, c := range read() {
			m[c.Name] = c.Value
		}
		return m
	}
	v := reflect.ValueOf(owner).Elem()
	var bad []string
	for i := range v.NumField() {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() || f.Kind() != reflect.Uint64 {
			continue
		}
		before := rows()
		f.SetUint(f.Uint() + bump)
		after := rows()
		f.SetUint(f.Uint() - bump)
		var moved []string
		for name, val := range after {
			if val != before[name] {
				moved = append(moved, fmt.Sprintf("%s by %d", name, val-before[name]))
			}
		}
		if len(moved) != 1 || !strings.HasSuffix(moved[0], fmt.Sprintf(" by %d", bump)) {
			msg := fmt.Sprintf("%s moved %d rows", v.Type().Field(i).Name, len(moved))
			if len(moved) > 0 {
				msg += ": " + strings.Join(moved, ", ")
			}
			bad = append(bad, msg)
		}
	}
	return bad
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
	if host.NIC.Offload().Stats().Runs == 0 || host.Stack.Stats.XSKDelivered == 0 {
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

// TestStorageJoinsItsHost: a device attached through the host shares the
// host's tracer and chaos plan. With every helper lookup failing, each of
// ten token-policy runs at the storage hook records one hook span and takes
// one injected lookup miss.
func TestStorageJoinsItsHost(t *testing.T) {
	plan, err := faults.ParsePlan("site=helper-lookup every=1")
	if err != nil {
		t.Fatal(err)
	}
	host, app := syrup.MustHostApp(syrup.HostConfig{Trace: syrup.NewTraceRecorder(0), Faults: plan}, 1, 1000, 9000)
	dev := host.AttachStorage(storage.Config{})
	if _, err := app.DeployBuiltin(policy.NameToken, syrup.HookStorage, nil); err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		dev.Submit(&storage.Request{ID: uint64(i + 1), Kind: storage.Read, LBA: uint64(i)})
	}
	host.Run()
	spans := 0
	for _, sp := range host.Tracer.Spans() {
		if sp.Stage == trace.StageHook && sp.Hook == string(syrup.HookStorage) {
			spans++
		}
	}
	if got := host.Faults.Injected(faults.SiteHelperLookup); spans != 10 || got != 10 {
		t.Fatalf("storage hook spans = %d, injected lookup misses = %d; want 10 and 10", spans, got)
	}
}

// TestHostArmsEveryLayer: a host built untraced and unarmed, with
// deployments at XDP offload and socket select, a ghOSt thread policy and
// attached storage, is traced and armed by setting host.Tracer and
// host.Faults once. Every layer records spans and fires its sites from
// then on, and so does a reuseport group bound afterwards.
func TestHostArmsEveryLayer(t *testing.T) {
	host, app := syrup.MustHostApp(syrup.HostConfig{Seed: 3, NumCPUs: 3, NICQueues: 2}, 1, 1000, 9000, 9001)
	app.NewUDPSocket(9000, "w0")
	app.NewUDPSocket(9000, "w1")
	deploySelect := func() {
		t.Helper()
		if _, err := app.DeployBuiltin(policy.NameRoundRobin, syrup.HookSocketSelect, map[string]int64{"NUM_THREADS": 2}); err != nil {
			t.Fatal(err)
		}
	}
	deploySelect()
	if _, err := app.DeployPolicy("r0 = 1\nexit\n", syrup.HookXDPOffload, nil); err != nil {
		t.Fatal(err)
	}
	agent, err := app.DeployThreadPolicy(&policy.FIFO{}, 2, []int{0, 1}, ghost.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := host.AttachStorage(storage.Config{})
	if _, err := app.DeployBuiltin(policy.NameToken, syrup.HookStorage, nil); err != nil {
		t.Fatal(err)
	}

	plan, err := faults.ParsePlan("site=offload every=2; site=socket-select every=2; site=helper-lookup every=1; site=ghost-stall every=1")
	if err != nil {
		t.Fatal(err)
	}
	host.Tracer = syrup.NewTraceRecorder(1 << 14)
	host.Faults = plan.Compile(3, host.Eng.Now)
	// A group bound after arming; the redeploy attaches to it.
	app.NewUDPSocket(9001, "late")
	deploySelect()

	for i := range 20 {
		host.NIC.Receive(testPacket(uint64(i+1), 9000+uint16(i%2)))
		dev.Submit(&storage.Request{ID: uint64(i + 1), Kind: storage.Read, LBA: uint64(i)})
	}
	for range 2 {
		th := host.Machine.NewThread("w", 1, host.Machine.AffinityAll(), func(th *kernel.Thread) {
			th.Exec(10*sim.Microsecond, func() { th.Exit() })
		})
		if err := agent.Register(th); err != nil {
			t.Fatal(err)
		}
		th.Wake()
	}
	host.Run()

	stages, hooks := map[trace.Stage]bool{}, map[string]bool{}
	for _, sp := range host.Tracer.Spans() {
		stages[sp.Stage] = true
		if sp.Stage == trace.StageHook {
			hooks[sp.Hook] = true
		}
	}
	for _, s := range []trace.Stage{trace.StageNIC, trace.StageSoftirq, trace.StageProto, trace.StageHook, trace.StageGhost} {
		if !stages[s] {
			t.Errorf("no %v span", s)
		}
	}
	for _, h := range []string{string(syrup.HookXDPOffload), "socket_select:9000", "socket_select:9001", string(syrup.HookStorage)} {
		if !hooks[h] {
			t.Errorf("no hook span from %s", h)
		}
	}
	for _, site := range []faults.Site{faults.SiteOffload, faults.SiteSocketSelect, faults.SiteHelperLookup, faults.SiteGhostStall} {
		if host.Faults.Injected(site) == 0 {
			t.Errorf("nothing injected at %s", site)
		}
	}
	if f := host.Stack.LookupGroup(9001).Hook().Stats().Faults; f == 0 {
		t.Error("the group bound after arming took no injected fault")
	}
}

// TestTelemetryRetainsTheOperatorView: a host built with
// HostConfig.Telemetry keeps obs.ViewTicks ticks per series until a reader
// declares a longer window — about 2.2 KiB per series, its 2 KiB of values
// plus its share of the clock and its registration, not the 32 KiB a
// 4 096-tick ring held. The heap is read after a GC around building the
// host and registering 60 gauges beside its own 4, less the same host
// without telemetry; the least of three reads is kept, so an allocation
// that outlives one read cannot fail it.
func TestTelemetryRetainsTheOperatorView(t *testing.T) {
	const extra = 60
	retained := func(tel *obs.Config) float64 {
		var before, after runtime.MemStats
		runtime.GC() // the second GC frees what the first left in pool victim caches
		runtime.GC()
		runtime.ReadMemStats(&before)
		host := syrup.NewHost(syrup.HostConfig{Telemetry: tel})
		if tel != nil {
			for i := range extra {
				host.Obs.Gauge(fmt.Sprintf("g%02d", i), func() float64 { return 1 })
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(host)
		return float64(after.HeapAlloc) - float64(before.HeapAlloc)
	}
	perSeries := math.Inf(1)
	for range 3 {
		perSeries = min(perSeries, (retained(&obs.Config{})-retained(nil))/(extra+4))
	}
	t.Logf("telemetry retains %.0f B per series", perSeries)
	if perSeries > 2.25*1024 {
		t.Fatalf("telemetry retains %.0f B per series, want <= 2.25 KiB", perSeries)
	}
}
