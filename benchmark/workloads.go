package main

import (
	"fmt"
	"math"
	"strings"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/cluster"
	"syrup/internal/ebpf"
	"syrup/internal/experiments"
	"syrup/internal/ghost"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/netstack"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/trace"
	"syrup/internal/workload"
)

// App identities. experiments.AdaptiveRules hard-codes app 1 and sheds
// user 2, so the RocksDB worlds use exactly those.
const (
	rocksPort = 9000
	rocksApp  = 1
	rocksUID  = 1000
	lsUser    = 1
	beUser    = 2

	micaPort    = 9100
	micaApp     = 2
	micaUID     = 1001
	micaThreads = 8

	fleetHosts = 4
)

// windows are the simulated run lengths of one pass.
type windows struct {
	Warmup, Measure, Drain sim.Time
}

// spec is one benchmark workload. Everything in it is a constant: run
// length never adapts to how fast the machine happens to be, so two runs
// of one seed simulate exactly the same events.
type spec struct {
	name string
	why  string
	// limit is the latency limit goodput and the SLO share are counted
	// against (workload.Config.Deadline).
	limit sim.Time
	win   windows
	// passes is k, the number of identical passes in a run of runSeconds;
	// setups is how many cold set-ups each pass times before it keeps one.
	passes int
	setups int
	// chunk is the stretch of simulated time the timed run is timed in,
	// sized to cost about a tenth of a CPU second (see measured).
	chunk sim.Time
	batch int
	// minDecisions is how many controller decisions a correct run takes at
	// least (shed and restore, for the workload with a burst).
	minDecisions int
	build        buildFunc
	// datapath builds a single-host world with this workload's hooks,
	// sockets and policy for the isolation probes (the workload itself for
	// the single-host ones, one fleet member's shape for the fleet).
	datapath buildFunc
}

// buildFunc wires one world. tr, when non-nil, switches the program's
// request recorder on and receives a span around every call into a layer;
// unstarted leaves the application's worker threads asleep, so a probe can
// fill the sockets without the application draining them.
type buildFunc func(sp *spec, seed uint64, win windows, tr *tracer, unstarted bool) (*world, error)

// member is one simulated host of a world together with the handles the
// correctness gate and the per-layer counters read after a run.
type member struct {
	host *syrup.Host
	gen  *workload.Generator
	// served reports the requests the application finished, warm-up and
	// rollout probes included; queued the requests parked in its socket
	// queues (nil when the app does not expose them).
	served func() uint64
	queued func() int
	store  *rocksdb.Store
	// scanState is the userspace-written map scan_avoid and GetPriority
	// read (nil outside the RocksDB worlds).
	scanState *ebpf.Map
	agent     *ghost.Agent
	rec       *trace.Recorder
	res       *workload.Result
	// What the isolation probes replay: the generator's configuration, the
	// hook point the policy sits at and what was deployed there, and the
	// application's sockets and thread count.
	cfg     workload.Config
	point   *hook.Point
	dep     deployment
	sockets []*netstack.Socket
	threads int
	// start is the member's sim clock when its generator started (canary
	// bakes advance canaries ahead of the rest of the fleet).
	start sim.Time
}

// deployment is one DeployBuiltin call's arguments.
type deployment struct {
	app     uint32
	policy  string
	hook    syrup.Hook
	defines map[string]int64
}

// deploy installs d through syrupd, the way an application would.
func (m *member) deploy(tr *tracer, app *syrup.App, d deployment) error {
	s := tr.begin("App.DeployBuiltin")
	_, err := app.DeployBuiltin(d.policy, d.hook, d.defines)
	tr.end(s)
	m.dep = d
	return err
}

// world is one built simulation: every layer wired, policies deployed,
// nothing run yet.
type world struct {
	sp      *spec
	win     windows
	members []*member
	fleet   *cluster.Cluster // nil for single-host worlds
	merged  *workload.Result // result's cache
}

// specs lists the four workloads in BENCHMARK.json order. Rates sit near
// 80 % of each configuration's knee, where the tail reacts to scheduling
// but nothing is dropped; fleet_burst_adapt alone is driven past it.
var (
	getRR = buildRocks(rocksOpts{
		cpus: 6, threads: 6, pin: true, flows: 50, rate: 350_000,
		classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
		policy:  policy.NameRoundRobin,
	})
	scanGhost = buildRocks(rocksOpts{
		cpus: 6, threads: 36, flows: 50, rate: 150_000,
		classes: []workload.Class{
			{Name: "GET", Weight: 0.995, Type: policy.ReqGET},
			{Name: "SCAN", Weight: 0.005, Type: policy.ReqSCAN},
		},
		policy: policy.NameScanAvoid, ghost: true,
	})
	// fleetHost is one fleet member's datapath as a stand-alone host.
	fleetHost = buildRocks(rocksOpts{
		cpus: 6, threads: 6, pin: true, flows: 1 << 16, rate: 160_000,
		classes: fleetClasses, policy: policy.NameRoundRobin, service: fig7Service,
	})
	fleetClasses = []workload.Class{
		{Name: "LS", Weight: 0.4, Type: policy.ReqGET, UserID: lsUser},
		{Name: "BE", Weight: 0.6, Type: policy.ReqGET, UserID: beUser},
	}
)

var specs = []*spec{
	{
		name:   "rocksdb_get_rr",
		why:    "Fig. 2 path, per-packet socket-select round_robin: sim engine, netstack and CFS wake-ups dominate, the app model does not",
		limit:  100 * sim.Microsecond,
		win:    windows{Warmup: 200 * sim.Millisecond, Measure: 3000 * sim.Millisecond, Drain: 100 * sim.Millisecond},
		passes: 10, setups: 5, chunk: 200 * sim.Millisecond,
		build: getRR, datapath: getRR,
	},
	{
		name:   "mica_mix_xdp",
		why:    "Fig. 9a path, batch-64 XDP mica_hash into AF_XDP with PUTs beside GETs: hook+ebpf share is largest, thread scheduling almost idle",
		limit:  100 * sim.Microsecond,
		win:    windows{Warmup: 100 * sim.Millisecond, Measure: 800 * sim.Millisecond, Drain: 50 * sim.Millisecond},
		passes: 10, setups: 5, chunk: 50 * sim.Millisecond, batch: 64,
		build: buildMica, datapath: buildMica,
	},
	{
		name:   "rocksdb_scan_ghost",
		why:    "Sec. 5.3 cross-layer path, scan_avoid + ghOSt GetPriority over 36 threads: only workload where ghost, preemption and Store.Scan do work",
		limit:  100 * sim.Microsecond,
		win:    windows{Warmup: 200 * sim.Millisecond, Measure: 2000 * sim.Millisecond, Drain: 100 * sim.Millisecond},
		passes: 10, setups: 5, chunk: 200 * sim.Millisecond,
		build: scanGhost, datapath: scanGhost,
	},
	{
		name:   "fleet_burst_adapt",
		why:    "4 hosts behind Maglev, staged rollouts, telemetry + adaptive controller through an overload burst: only workload loading obs, adapt, syrupd swap and cluster",
		limit:  400 * sim.Microsecond,
		win:    windows{Warmup: 100 * sim.Millisecond, Measure: 500 * sim.Millisecond, Drain: 150 * sim.Millisecond},
		passes: 10, setups: 2, chunk: 150 * sim.Millisecond, minDecisions: 2,
		build: buildFleet, datapath: fleetHost,
	},
}

func findSpec(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

type rocksOpts struct {
	cpus, threads int
	pin           bool
	flows         int
	rate          float64
	classes       []workload.Class
	policy        string
	// ghost deploys the GetPriority thread policy with the last CPU
	// reserved for the agent.
	ghost   bool
	service rocksdb.ServiceModel // nil: the RocksDB default
}

var scanStateSpec = ebpf.MapSpec{Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64}

// newRecorder is the program's own request recorder, on in traced passes.
func newRecorder(tr *tracer) *trace.Recorder {
	if tr == nil {
		return nil
	}
	return trace.New(0)
}

// buildRocks mirrors experiments.runRocksPointFull for the single-host
// RocksDB workloads.
func buildRocks(o rocksOpts) buildFunc {
	return func(sp *spec, seed uint64, win windows, tr *tracer, unstarted bool) (*world, error) {
		m := &member{rec: newRecorder(tr)}
		s := tr.begin("syrup.NewHostApp")
		host, app, err := syrup.NewHostApp(syrup.HostConfig{
			Seed: seed, NumCPUs: o.cpus, NICQueues: o.cpus, Batch: sp.batch, Trace: m.rec,
		}, rocksApp, rocksUID, rocksPort)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		m.host = host
		m.cfg = workload.Config{
			Rate: o.rate, Deadline: sp.limit, Classes: o.classes, Flows: o.flows, DstPort: rocksPort,
			Warmup: win.Warmup, Measure: win.Measure, Drain: win.Drain,
		}
		s = tr.begin("workload.New")
		m.gen = workload.New(host.Eng, host.NIC, m.cfg)
		tr.end(s)
		scanState, err := app.CreateMap(scanStateSpec)
		if err != nil {
			return nil, err
		}
		m.scanState = scanState.Raw()
		s = tr.begin("rocksdb.NewServer")
		srv := rocksdb.NewServer(host.Eng, host.Machine, host.Stack, rocksdb.Config{
			Port: rocksPort, App: rocksApp, NumThreads: o.threads, PinToCores: o.pin, Service: o.service,
			ScanState: m.scanState, OnComplete: m.gen.Complete, Tracer: m.rec,
		})
		tr.end(s)
		m.observeRocks(srv)
		if err := m.deploy(tr, app, deployment{rocksApp, o.policy, syrup.HookSocketSelect, map[string]int64{"NUM_THREADS": int64(o.threads)}}); err != nil {
			return nil, err
		}
		if o.ghost {
			slotOf := make(map[int]int, o.threads)
			for i, th := range srv.Threads() {
				slotOf[th.ID] = i
			}
			pol := &policy.GetPriority{TypeOf: func(t *kernel.Thread) uint64 {
				v, _ := m.scanState.LookupUint64(uint32(slotOf[t.ID]))
				return v
			}}
			workers := make([]int, o.cpus-1)
			for i := range workers {
				workers[i] = i
			}
			s = tr.begin("App.DeployThreadPolicy")
			m.agent, err = app.DeployThreadPolicy(pol, o.cpus-1, workers, ghost.Config{})
			tr.end(s)
			if err != nil {
				return nil, err
			}
			for _, th := range srv.Threads() {
				if err := m.agent.Register(th); err != nil {
					return nil, err
				}
			}
		}
		if !unstarted {
			srv.Start()
		}
		return &world{sp: sp, win: win, members: []*member{m}}, nil
	}
}

func (m *member) observeRocks(srv *rocksdb.Server) {
	m.store = srv.Store()
	m.sockets, m.threads = srv.Sockets(), len(srv.Threads())
	m.point = m.host.Stack.LookupGroup(rocksPort).Hook()
	m.served = func() uint64 { return srv.ProcessedGET + srv.ProcessedSCAN }
	m.queued = func() int {
		n := 0
		for _, s := range m.sockets {
			n += s.Len()
		}
		return n
	}
}

// buildMica mirrors experiments.runMicaPoint in its Syrup SW mode.
func buildMica(sp *spec, seed uint64, win windows, tr *tracer, unstarted bool) (*world, error) {
	m := &member{rec: newRecorder(tr)}
	s := tr.begin("syrup.NewHostApp")
	host, app, err := syrup.NewHostApp(syrup.HostConfig{
		Seed: seed, NumCPUs: micaThreads, NICQueues: micaThreads, Batch: sp.batch, Trace: m.rec,
	}, micaApp, micaUID, micaPort)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	m.host = host
	m.cfg = workload.Config{
		Rate: 2_000_000, Deadline: sp.limit, DstPort: micaPort, KeySpace: 1 << 20,
		Classes: []workload.Class{
			{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
			{Name: "PUT", Weight: 0.5, Type: policy.ReqPUT},
		},
		Warmup: win.Warmup, Measure: win.Measure, Drain: win.Drain,
	}
	s = tr.begin("workload.New")
	m.gen = workload.New(host.Eng, host.NIC, m.cfg)
	tr.end(s)
	s = tr.begin("mica.NewServer")
	srv := mica.NewServer(host.Eng, host.Machine, host.Stack, mica.Config{
		Port: micaPort, App: micaApp, NumThreads: micaThreads, Mode: mica.ModeSyrupSW,
		OnComplete: m.gen.Complete,
	})
	tr.end(s)
	m.served = func() uint64 {
		var n uint64
		for i := 0; i < micaThreads; i++ {
			n += srv.Partition(i).Gets + srv.Partition(i).Puts
		}
		return n
	}
	m.point, m.threads = host.Stack.XDP(), micaThreads
	if err := m.deploy(tr, app, deployment{micaApp, policy.NameMicaHash, syrup.HookXDPSkb, map[string]int64{"NUM_EXECUTORS": micaThreads}}); err != nil {
		return nil, err
	}
	if !unstarted {
		srv.Start()
	}
	return &world{sp: sp, win: win, members: []*member{m}}, nil
}

// The fleet scenario's load shape and controller come from the committed
// adapt demo; only the windows differ, and the burst repeats every
// burstPeriod so a longer measure window sees more bursts, not a longer
// calm.
const burstPeriod = 500 * sim.Millisecond

// fleetShape is experiments.AdaptiveConfig.rateFn (unexported) with the
// burst made periodic: the per-host offered rate at time t since the
// generator started.
func fleetShape(cfg experiments.AdaptiveConfig, warmup sim.Time) func(sim.Time) float64 {
	return func(t sim.Time) float64 {
		phase := 2 * math.Pi * float64(t%cfg.DiurnalPeriod) / float64(cfg.DiurnalPeriod)
		rate := cfg.CalmRate * (1 + cfg.DiurnalAmp*math.Sin(phase))
		if t < warmup {
			return rate
		}
		b := (t-warmup)%burstPeriod - cfg.BurstStart
		var env float64
		switch {
		case b < 0 || b >= 2*cfg.BurstRamp+cfg.BurstLen:
		case b < cfg.BurstRamp:
			env = float64(b) / float64(cfg.BurstRamp)
		case b < cfg.BurstRamp+cfg.BurstLen:
			env = 1
		default:
			env = float64(2*cfg.BurstRamp+cfg.BurstLen-b) / float64(cfg.BurstRamp)
		}
		return rate + env*(cfg.PeakRate-cfg.CalmRate)
	}
}

// instrument mirrors experiments.instrumentHost: the workload-facing
// series the rule table's detectors read.
func instrument(host *syrup.Host, gen *workload.Generator, classes []workload.Class) {
	live := gen.LiveStats()
	host.Obs.Rate("rps", func() float64 {
		var n uint64
		for _, st := range live {
			n += st.Completed
		}
		return float64(n)
	})
	host.Obs.Rate("offered_rps", func() float64 {
		var n uint64
		for _, st := range live {
			n += st.Offered
		}
		return float64(n)
	})
	host.Obs.Rate("drop_rate", func() float64 {
		return float64(host.Stack.Stats.TotalDrops() + host.NIC.Stats.DroppedRing + host.NIC.Stats.DroppedByXDP)
	})
	for i, c := range classes {
		host.Obs.Histogram("latency_"+c.Name, live[i].Latency)
		host.Obs.WindowHistogram("latency_"+c.Name, live[i].Latency)
	}
}

// fig7Service mirrors experiments.fig7Service: 6-core saturation just
// under 400 K RPS per host.
func fig7Service(rng interface{ Float64() float64 }, _ uint64) sim.Time {
	return sim.Time(12_000 + 1_700*rng.Float64())
}

func buildFleet(sp *spec, seed uint64, win windows, tr *tracer, _ bool) (*world, error) {
	acfg := experiments.DefaultAdaptive()
	s := tr.begin("cluster.New")
	cl, err := cluster.New(cluster.Config{
		Hosts: fleetHosts, Seed: seed,
		Host: syrup.HostConfig{NumCPUs: 6, NICQueues: 6, Batch: sp.batch, Telemetry: &obs.Config{Period: acfg.ObsPeriod}},
		Tune: func(_ int, cfg *syrup.HostConfig) { cfg.Trace = newRecorder(tr) },
	})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("Cluster.Split")
	parts := cl.Split(workload.Config{
		Rate: acfg.CalmRate * fleetHosts, Flows: 1 << 18, DstPort: rocksPort, Classes: fleetClasses, Deadline: sp.limit,
		Warmup: win.Warmup, Measure: win.Measure, Drain: win.Drain,
	})
	tr.end(s)
	shape := fleetShape(acfg, win.Warmup)
	w := &world{sp: sp, win: win, fleet: cl}
	for i, cm := range cl.Members {
		m := &member{host: cm.Host, rec: cm.Host.Tracer}
		app, err := cm.Host.RegisterApp(rocksApp, rocksUID, rocksPort)
		if err != nil {
			return nil, err
		}
		// Split scales Rate by flow share; RateFn is absolute, so scale
		// the shape the same way and rebase it to the member's own clock.
		share := parts[i].Rate / acfg.CalmRate
		m.cfg = parts[i]
		m.cfg.RateFn = func(t sim.Time) float64 { return share * shape(t-m.start) }
		s = tr.begin("workload.New")
		m.gen = workload.New(cm.Host.Eng, cm.Host.NIC, m.cfg)
		tr.end(s)
		if _, err := app.CreateMap(scanStateSpec); err != nil {
			return nil, err
		}
		s = tr.begin("rocksdb.NewServer")
		srv := rocksdb.NewServer(cm.Host.Eng, cm.Host.Machine, cm.Host.Stack, rocksdb.Config{
			Port: rocksPort, App: rocksApp, NumThreads: 6, PinToCores: true,
			Service: fig7Service, OnComplete: m.gen.Complete, Tracer: m.rec,
		})
		tr.end(s)
		m.observeRocks(srv)
		srv.Start()
		instrument(cm.Host, m.gen, fleetClasses)
		w.members = append(w.members, m)
	}
	s = tr.begin("Cluster.Rollout")
	rep, err := cl.Rollout(cluster.RolloutConfig{
		App: rocksApp, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin,
		Defines: map[string]int64{"NUM_THREADS": 6},
	})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if rep.Aborted {
		return nil, fmt.Errorf("%s", rep)
	}
	s = tr.begin("Cluster.RolloutRules")
	rrep, err := cl.RolloutRules(cluster.RuleRolloutConfig{Rules: experiments.AdaptiveRules(acfg, 6), App: rocksApp, Probes: 32})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if rrep.Aborted {
		return nil, fmt.Errorf("%s", rrep)
	}
	return w, nil
}

// run is the timed region of a pass: every member simulated to
// completion (one worker: the fleet is as single-threaded as one host),
// then, for a fleet, the operator's final scrape. Untraced, the simulation
// advances sp.chunk of simulated time at a step (the events and their
// order are RunToCompletion's) and the CPU seconds of every step, and of
// the scrape, are returned in order.
func (w *world) run(tr *tracer) ([]float64, error) {
	var chunks []float64
	simulate := func(m *member) {
		m.start = m.host.Now()
		end := m.start + w.win.Warmup + w.win.Measure + w.win.Drain
		if tr == nil {
			m.gen.Start()
			for at := m.start; at < end; {
				at = min(at+w.sp.chunk, end)
				c0 := cpuNow()
				m.host.Eng.RunUntil(at)
				chunks = append(chunks, cpuNow()-c0)
			}
			m.res = m.gen.Result()
			return
		}
		// Same simulation cut at the window boundaries, so the traced pass
		// shows where host time goes across warm-up, measure and drain.
		sp := tr.begin("run." + m.host.Name)
		m.gen.Start()
		at := m.start
		for _, ph := range []struct {
			name string
			d    sim.Time
		}{{"warmup", w.win.Warmup}, {"measure", w.win.Measure}, {"drain", w.win.Drain}} {
			at += ph.d
			s := tr.begin("sim.RunUntil." + ph.name)
			m.host.Eng.RunUntil(at)
			tr.end(s)
		}
		m.res = m.gen.Result()
		tr.end(sp)
	}
	if w.fleet == nil {
		simulate(w.members[0])
		return chunks, nil
	}
	w.fleet.RunAll(1, func(cm *cluster.Member) { simulate(w.members[cm.Index]) })
	s := tr.begin("cluster.Scrape")
	c0 := cpuNow()
	_, err := w.fleet.Scrape()
	if tr == nil {
		chunks = append(chunks, cpuNow()-c0)
	}
	tr.end(s)
	return chunks, err
}

// result merges the members' client-side statistics (histograms merge
// exactly).
func (w *world) result() *workload.Result {
	if len(w.members) == 1 {
		return w.members[0].res
	}
	if w.merged != nil {
		return w.merged
	}
	all := &workload.Result{All: metrics.NewRunStats(), PerClass: map[string]*metrics.RunStats{}}
	w.merged = all
	for _, m := range w.members {
		all.All.Merge(m.res.All)
		for name, st := range m.res.PerClass {
			if all.PerClass[name] == nil {
				all.PerClass[name] = metrics.NewRunStats()
			}
			all.PerClass[name].Merge(st)
		}
	}
	return all
}

// decisions lists every controller decision of the run, host by host.
func (w *world) decisions() []string {
	var out []string
	for _, m := range w.members {
		if ctl := m.host.Daemon.AdaptController(); ctl != nil {
			for _, d := range ctl.History() {
				out = append(out, m.host.Name+" "+d.String())
			}
		}
	}
	return out
}

// digest renders everything a run is allowed to depend on the seed for:
// per-host and merged client statistics plus the controller's decisions.
// Two passes simulated the same thing exactly when their digests match.
func (w *world) digest() string {
	var b strings.Builder
	for _, m := range w.members {
		fmt.Fprintf(&b, "== %s ==\n%s", m.host.Name, experiments.StatsDigest(m.res))
	}
	if len(w.members) > 1 {
		fmt.Fprintf(&b, "== fleet ==\n%s", experiments.StatsDigest(w.result()))
	}
	for _, d := range w.decisions() {
		fmt.Fprintf(&b, "decision %s\n", d)
	}
	return b.String()
}
