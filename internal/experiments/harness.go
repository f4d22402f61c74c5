package experiments

import (
	"fmt"

	"syrup"
	"syrup/internal/adapt"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/par"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
	"syrup/internal/trace"
	"syrup/internal/workload"
)

// Windows controls simulated run lengths; tests shrink them, benches use
// the defaults.
type Windows struct {
	Warmup  sim.Time
	Measure sim.Time
	Drain   sim.Time
}

// DefaultWindows are the bench-quality run lengths.
var DefaultWindows = Windows{
	Warmup:  200 * sim.Millisecond,
	Measure: 800 * sim.Millisecond,
	Drain:   300 * sim.Millisecond,
}

// FastWindows are used by the shape tests.
var FastWindows = Windows{
	Warmup:  60 * sim.Millisecond,
	Measure: 250 * sim.Millisecond,
	Drain:   150 * sim.Millisecond,
}

// RunConfig is how a run is measured and how it observes and parallelises
// itself — everything about a run that is not the scenario. Every figure,
// trace, chaos and cluster config carries one, and every host a run builds
// is built from it. Results are bit-identical at any ObsPeriod, Workers and
// Tracer (TestObsDifferential*, TestCluster*WorkersDifferential and
// TestTracingDoesNotPerturbResults).
type RunConfig struct {
	// Windows are the simulated run lengths (zero: DefaultWindows).
	Windows Windows
	// ObsPeriod, when positive, attaches a telemetry sampler to every host
	// of the run: datapath gauges plus the workload rps / drop_rate /
	// latency series, sampled each period. The sampler rides the engine's
	// passive hook. Zero builds hosts with no telemetry.
	ObsPeriod sim.Time
	// Workers is the fan-out width of the run's sweep or fleet (<= 0: one
	// worker per CPU). Every simulation owns private state and all
	// aggregation is index-addressed.
	Workers int
	// Tracer, when set, threads the cross-stack request tracer through the
	// host and server of a single-host point. A recorder has one owner: a
	// sweep that shares one needs Workers: 1, and a fleet takes none.
	Tracer *trace.Recorder
}

func (rc RunConfig) windows() Windows {
	if rc.Windows == (Windows{}) {
		return DefaultWindows
	}
	return rc.Windows
}

func (rc RunConfig) telemetry() *obs.Config {
	if rc.ObsPeriod <= 0 {
		return nil
	}
	return &obs.Config{Period: rc.ObsPeriod}
}

// load is the workload config every run starts from: the offered rate over
// the run's windows.
func (rc RunConfig) load(rate float64) workload.Config {
	w := rc.windows()
	return workload.Config{Rate: rate, Warmup: w.Warmup, Measure: w.Measure, Drain: w.Drain}
}

// hostRun is one host of a run, the generator that loads it and the app
// that serves it. probed marks a host the cluster's rollout baked under
// probe traffic: its drops include probes, which no generator sent.
type hostRun struct {
	host   *syrup.Host
	gen    *workload.Generator
	app    interface{ Dropped() uint64 }
	probed bool
}

// finish is the one place a run ends: every generator starts, every engine
// advances through Warmup+Measure+Drain on the worker pool (width 1 for a
// single host), each run is checked for conservation, and the results come
// back by index.
func finish(workers int, runs ...hostRun) []*workload.Result {
	results := make([]*workload.Result, len(runs))
	par.Do(len(runs), workers, func(i int) {
		results[i] = runs[i].gen.RunToCompletion()
		conserve(runs[i], results[i])
	})
	return results
}

// conserve panics, naming the host, the equation and its terms, unless the
// finished run accounted for every request. The host half is
// Daemon.Conserved; the client half is offered = completed + unanswered,
// with unanswered no more than what the host dropped (Daemon.Dropped), what
// the app dropped (a PUT sent to RocksDB, say) and what the host still
// holds (Daemon.Held), and the loss identity: every request the
// generator saw lost, warm-up included, is one the host or the app dropped,
// exactly so on a host that served no probes. So a drop site that frees
// its packet instead of calling Drop fails here. A host with no fault plan
// must also end with zero policy faults: the executor checks every access,
// so a verifier hole in a shipped policy shows up as a fault that fell
// open.
func conserve(r hostRun, res *workload.Result) {
	host := r.host
	d, all := host.Daemon, res.All
	unanswered, dropped, held := all.TotalDrops(), d.Dropped(), d.Held()
	lost, appDropped := r.gen.Lost(), r.app.Dropped()
	err := d.Conserved()
	if err == nil && host.Faults == nil {
		err = unfaulted(d)
	}
	if err == nil && all.Offered != all.Completed+unanswered {
		err = fmt.Errorf("requests not conserved: offered %d != completed %d + unanswered %d", all.Offered, all.Completed, unanswered)
	}
	if err == nil && unanswered > dropped+appDropped+held {
		err = fmt.Errorf("requests not conserved: unanswered %d > host dropped %d + app dropped %d + held %d", unanswered, dropped, appDropped, held)
	}
	if err == nil && (lost > dropped+appDropped || !r.probed && lost != dropped+appDropped) {
		err = fmt.Errorf("losses not conserved: client lost %d != host dropped %d + app dropped %d", lost, dropped, appDropped)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", host.Name, err))
	}
}

// unfaulted fails if the host's ebpf_hook_faults row is non-zero.
func unfaulted(d *syrupd.Daemon) error {
	for _, cv := range d.Counters() {
		if cv.Name == "ebpf_hook_faults" && cv.Value != 0 {
			return fmt.Errorf("policy faults on a host with no fault plan: ebpf_hook_faults %d != 0", cv.Value)
		}
	}
	return nil
}

// mergeFleet aggregates the members' stats, histograms merged exactly.
func mergeFleet(results []*workload.Result) *workload.Result {
	fleet := &workload.Result{All: metrics.NewRunStats(), PerClass: make(map[string]*metrics.RunStats)}
	for _, r := range results {
		fleet.All.Merge(r.All)
		for name, st := range r.PerClass {
			agg, ok := fleet.PerClass[name]
			if !ok {
				agg = metrics.NewRunStats()
				fleet.PerClass[name] = agg
			}
			agg.Merge(st)
		}
	}
	return fleet
}

// instrumentHost registers the workload-facing series on a telemetry-
// enabled host: total completion rate (rps), offered load (offered_rps —
// client pressure, independent of what the policy admits, the adaptive
// controller's recovery signal), the rate of what the host dropped
// (drop_rate, Daemon.Dropped), and per-class latency series — cumulative
// percentiles plus the windowed interval percentiles burn-rate SLOs and
// the adapt controller consume. No-op when the host has no sampler.
func instrumentHost(host *syrup.Host, gen *workload.Generator, classes []workload.Class) {
	if host.Obs == nil {
		return
	}
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
		return float64(host.Daemon.Dropped())
	})
	for i, c := range classes {
		host.Obs.Histogram("latency_"+c.Name, live[i].Latency)
		host.Obs.WindowHistogram("latency_"+c.Name, live[i].Latency)
	}
}

// SocketPolicy names the socket-selection policy a RocksDB point uses.
type SocketPolicy string

// Socket policies.
const (
	PolicyVanilla    SocketPolicy = "vanilla" // Linux hash-based reuseport
	PolicyRoundRobin SocketPolicy = "round_robin"
	PolicyScanAvoid  SocketPolicy = "scan_avoid"
	PolicySITA       SocketPolicy = "sita"
	PolicyToken      SocketPolicy = "token"
	PolicyShed       SocketPolicy = "shed" // drop BE at the hook, round-robin the rest
)

// rocksPoint describes one RocksDB load point.
type rocksPoint struct {
	Seed       uint64
	Load       float64
	NumThreads int
	PinToCores bool
	Flows      int
	Classes    []workload.Class
	Policy     SocketPolicy
	// ThreadSched enables the ghOSt GET-priority thread policy; it
	// reserves one core for the agent, leaving rocksN-1 workers.
	ThreadSched bool
	// Service overrides the default RocksDB service model.
	Service rocksdb.ServiceModel
	// LSUser and BEUser are the token policy's two tenants.
	LSUser uint32
	BEUser uint32
	// SwapTo, when set, hot-swaps the socket policy mid-measure: halfway
	// through the measurement window the named built-in policy replaces
	// the running one through syrupd (Link.Replace under live traffic,
	// the paper's §4.3 dynamic redeployment).
	SwapTo SocketPolicy
	// LateBinding switches the reuseport group to the §6.3 shared-queue
	// model (overrides Policy's executor choice).
	LateBinding bool
	// FlowLocalityBonus enables the §2.1 RFS locality model.
	FlowLocalityBonus float64
	Run               RunConfig
	// Faults, when set, arms the host with the chaos plan (compiled
	// against Seed) and syrupd's fault watchdog. Nil leaves the point
	// bit-identical to the seed runs.
	Faults *faults.Plan
	// RateFn modulates the offered rate over sim time (diurnal cycles,
	// load bursts); nil keeps the constant Load and the exact PRNG
	// stream of a constant-rate run.
	RateFn func(sim.Time) float64
	// Deadline marks completions within it as goodput
	// (RunStats.DeadlineHits). Zero disables deadline accounting.
	Deadline sim.Time
	// Adapt, when set, arms syrupd's adaptive controller with this rule
	// table after the initial policy deploy. Needs telemetry: pair it
	// with Run.ObsPeriod.
	Adapt *adapt.Config
}

const (
	rocksPort = 9000
	rocksApp  = 1
	rocksUID  = 1000
	// rocksN is a RocksDB host's core count, one NIC RX queue per core.
	rocksN = 6
	// tokenRate is the LS refill rate of the token policy's userspace
	// agent in tokens per second (Fig. 7's 350 K/s).
	tokenRate = 350_000
)

// RocksWorld is the RocksDB application wired onto one host: the load
// generator, the scan_state map the app shares with the SCAN Avoid kernel
// policy and the ghOSt policy, the server completing into the generator,
// and the workload series on the host's sampler. It is the one RocksDB
// wiring: the single-host points, RunCluster's members and cmd/syrupd's
// demo all call WireRocksDB and then deploy, start and run in their own
// order (construction order is observable: workload.New draws the flow
// pool from the host PRNG and Srv.Start consumes event sequence numbers).
type RocksWorld struct {
	Host      *syrup.Host
	Gen       *workload.Generator
	Srv       *rocksdb.Server
	ScanState *ebpf.Map
}

// WireRocksDB builds the RocksDB world on a host whose app is registered
// on port 9000 as app 1. It fills load's port and srv's port, app,
// scan_state map and completion callback; nothing is started.
func WireRocksDB(host *syrup.Host, app *syrup.App, load workload.Config, srv rocksdb.Config) *RocksWorld {
	load.DstPort = rocksPort
	gen := workload.New(host.Eng, host.NIC, load)
	instrumentHost(host, gen, load.Classes)
	scanState, err := app.CreateMap(ebpf.MapSpec{
		Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64,
	})
	if err != nil {
		panic(err) // a fixed spec on a freshly registered app
	}
	srv.Port, srv.App, srv.ScanState, srv.OnComplete = rocksPort, rocksApp, scanState.Raw(), gen.Complete
	return &RocksWorld{
		Host: host, Gen: gen, ScanState: scanState.Raw(),
		Srv: rocksdb.NewServer(host.Eng, host.Machine, host.Stack, srv),
	}
}

// rocksRun is a finished RocksDB point: the world it ran on and what the
// client saw.
type rocksRun struct {
	*RocksWorld
	Result *workload.Result
}

// runRocksPoint builds a fresh host, wires the RocksDB world, deploys the
// requested policies via syrupd, offers the load, and finishes the run.
func runRocksPoint(pt rocksPoint) *rocksRun {
	win := pt.Run.windows()
	host, app := syrup.MustHostApp(syrup.HostConfig{
		Seed:      pt.Seed,
		NumCPUs:   rocksN,
		NICQueues: rocksN, // one RX queue per core, IRQs on buddies (§5.1.1)
		Trace:     pt.Run.Tracer,
		Faults:    pt.Faults,
		Telemetry: pt.Run.telemetry(),
	}, rocksApp, rocksUID, rocksPort)
	if pt.Faults != nil {
		host.Daemon.EnableQuarantine()
	}

	load := pt.Run.load(pt.Load)
	load.RateFn, load.Deadline, load.Classes, load.Flows = pt.RateFn, pt.Deadline, pt.Classes, pt.Flows
	w := WireRocksDB(host, app, load, rocksdb.Config{
		NumThreads:        pt.NumThreads,
		PinToCores:        pt.PinToCores,
		Service:           pt.Service,
		FlowLocalityBonus: pt.FlowLocalityBonus,
		Tracer:            pt.Run.Tracer,
	})
	if pt.LateBinding {
		host.Stack.LookupGroup(rocksPort).EnableLateBinding(host.Stack.SocketQueueCap() * pt.NumThreads)
	}

	// Socket-selection policy via syrupd.
	defines := map[string]int64{"NUM_THREADS": int64(pt.NumThreads)}
	switch pt.Policy {
	case PolicyVanilla:
		// default hash selection: deploy nothing
	case PolicySITA:
		mustDeploy(app, policy.NameSITA, policy.SITADefines(pt.NumThreads))
	case PolicyToken:
		dep, err := app.DeployBuiltin(policy.NameToken, syrup.HookSocketSelect, nil)
		if err != nil {
			panic(err)
		}
		agent := &policy.TokenAgent{
			Tokens:   dep.Maps["tokens"],
			LSUser:   pt.LSUser,
			BEUser:   pt.BEUser,
			PerEpoch: uint64(tokenRate * float64(policy.TokenEpoch) / 1e9),
		}
		agent.Start(host.Eng)
	default:
		mustDeploy(app, string(pt.Policy), defines)
	}
	if pt.SwapTo != "" {
		host.Eng.CallAt(win.Warmup+win.Measure/2, func(any, uint64) {
			mustDeploy(app, string(pt.SwapTo), defines)
		}, nil, 0)
	}
	if pt.Adapt != nil {
		if _, err := host.Daemon.EnableAdapt(*pt.Adapt); err != nil {
			panic(fmt.Sprintf("experiments: enable adapt: %v", err))
		}
	}

	// Thread-scheduling policy via the ghOSt hook: GET-priority reading
	// the same scan_state map the application populates (§5.3).
	if pt.ThreadSched {
		slotOf := make(map[int]int, pt.NumThreads)
		for i, th := range w.Srv.Threads() {
			slotOf[th.ID] = i
		}
		pol := &policy.GetPriority{
			TypeOf: func(t *kernel.Thread) uint64 {
				v, _ := w.ScanState.LookupUint64(uint32(slotOf[t.ID]))
				return v
			},
		}
		workers := make([]int, rocksN-1)
		for i := range workers {
			workers[i] = i
		}
		agent, err := app.DeployThreadPolicy(pol, rocksN-1, workers, ghost.Config{})
		if err != nil {
			panic(err)
		}
		for _, th := range w.Srv.Threads() {
			if err := agent.Register(th); err != nil {
				panic(err)
			}
		}
	}

	w.Srv.Start()
	return &rocksRun{RocksWorld: w, Result: finish(1, hostRun{host: host, gen: w.Gen, app: w.Srv})[0]}
}

func mustDeploy(app *syrup.App, name string, defines map[string]int64) {
	if _, err := app.DeployBuiltin(name, syrup.HookSocketSelect, defines); err != nil {
		panic(fmt.Sprintf("experiments: deploy %s: %v", name, err))
	}
}
