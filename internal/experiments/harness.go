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
	"syrup/internal/obs"
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

// obsPeriod, when positive, attaches a telemetry sampler to every
// subsequently built experiment host: datapath gauges plus workload
// rps/drop_rate/latency series sampled each period. The sampler rides the
// engine's passive hook, so results are bit-identical with it on or off
// (the obs-diff gate). Zero (the default) builds hosts with no telemetry.
var obsPeriod sim.Time

// SetObsPeriod enables (or, with 0, disables) telemetry on subsequently
// built experiment hosts.
func SetObsPeriod(p sim.Time) { obsPeriod = p }

// telemetryConfig renders the package toggle as a host config.
func telemetryConfig() *obs.Config {
	if obsPeriod <= 0 {
		return nil
	}
	return &obs.Config{Period: obsPeriod}
}

// instrumentHost registers the workload-facing series on a telemetry-
// enabled host: total completion rate (rps), offered load (offered_rps —
// client pressure, independent of what the policy admits, the adaptive
// controller's recovery signal), cumulative drop rate across the NIC and
// stack (drop_rate), and per-class latency series — cumulative
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
		return float64(host.Stack.Stats.TotalDrops() + host.NIC.Stats.DroppedRing + host.NIC.Stats.DroppedByXDP)
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
	NumCPUs    int
	NumThreads int
	PinToCores bool
	Flows      int
	Classes    []workload.Class
	Policy     SocketPolicy
	// ThreadSched enables the ghOSt GET-priority thread policy; it
	// reserves one core for the agent, leaving NumCPUs-1 workers.
	ThreadSched bool
	// Service overrides the default RocksDB service model.
	Service rocksdb.ServiceModel
	// TokenRate/TokenEpoch configure the token policy's userspace agent.
	TokenRate  float64
	TokenEpoch sim.Time
	LSUser     uint32
	BEUser     uint32
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
	Windows           Windows
	// Tracer, when set, threads the cross-stack request tracer through
	// the host and server. Tracing never perturbs the simulation, so a
	// traced point's Result is bit-identical to an untraced one.
	Tracer *trace.Recorder
	// Faults, when set, arms the host with the chaos plan (compiled
	// against Seed); Quarantine additionally arms syrupd's fault
	// watchdog. Both nil leaves the point bit-identical to the seed runs.
	Faults     *faults.Plan
	Quarantine *syrupd.QuarantineConfig
	// RateFn modulates the offered rate over sim time (diurnal cycles,
	// load bursts); nil keeps the constant Load and the exact PRNG
	// stream of a constant-rate run.
	RateFn func(sim.Time) float64
	// Deadline marks completions within it as goodput
	// (RunStats.DeadlineHits). Zero disables deadline accounting.
	Deadline sim.Time
	// Adapt, when set, arms syrupd's adaptive controller with this rule
	// table after the initial policy deploy. Needs telemetry — pair it
	// with ObsPeriod (or the package SetObsPeriod toggle).
	Adapt *adapt.Config
	// ObsPeriod, when positive, attaches telemetry at this sampling
	// period regardless of the package toggle: adaptive points need a
	// sampler faster than the default for tight detection loops.
	ObsPeriod sim.Time
}

const (
	rocksPort = 9000
	rocksApp  = 1
	rocksUID  = 1000
)

// runRocksPoint builds a fresh host, deploys the requested policies via
// syrupd, offers the load, and returns per-class results.
func runRocksPoint(pt rocksPoint) *workload.Result {
	res, _, _ := runRocksPointFull(pt)
	return res
}

// runRocksPointWithLocality also reports the percentage of requests that
// hit the warm-flow locality discount (the RFS ablation's metric).
func runRocksPointWithLocality(pt rocksPoint) (*workload.Result, float64) {
	res, srv, _ := runRocksPointFull(pt)
	total := srv.ProcessedGET + srv.ProcessedSCAN
	if total == 0 {
		return res, 0
	}
	return res, 100 * float64(srv.LocalityHits) / float64(total)
}

func runRocksPointFull(pt rocksPoint) (*workload.Result, *rocksdb.Server, *syrup.Host) {
	if pt.Windows == (Windows{}) {
		pt.Windows = DefaultWindows
	}
	tele := telemetryConfig()
	if pt.ObsPeriod > 0 {
		tele = &obs.Config{Period: pt.ObsPeriod}
	}
	host, app := syrup.MustHostApp(syrup.HostConfig{
		Seed:       pt.Seed,
		NumCPUs:    pt.NumCPUs,
		NICQueues:  pt.NumCPUs, // one RX queue per core, IRQs on buddies (§5.1.1)
		Trace:      pt.Tracer,
		Faults:     pt.Faults,
		Quarantine: pt.Quarantine,
		Telemetry:  tele,
	}, rocksApp, rocksUID, rocksPort)

	gen := workload.New(host.Eng, host.NIC, workload.Config{
		Rate:     pt.Load,
		RateFn:   pt.RateFn,
		Deadline: pt.Deadline,
		Classes:  pt.Classes,
		Flows:    pt.Flows,
		DstPort:  rocksPort,
		Warmup:   pt.Windows.Warmup,
		Measure:  pt.Windows.Measure,
		Drain:    pt.Windows.Drain,
	})
	instrumentHost(host, gen, pt.Classes)

	// The scan_state map is shared between the app (userspace updates),
	// the SCAN Avoid kernel policy, and the ghOSt policy.
	scanState, err := app.CreateMap(ebpf.MapSpec{
		Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64,
	})
	if err != nil {
		panic(err)
	}

	srv := rocksdb.NewServer(host.Eng, host.Machine, host.Stack, rocksdb.Config{
		Port:              rocksPort,
		App:               rocksApp,
		NumThreads:        pt.NumThreads,
		PinToCores:        pt.PinToCores,
		Service:           pt.Service,
		ScanState:         scanState.Raw(),
		OnComplete:        gen.Complete,
		FlowLocalityBonus: pt.FlowLocalityBonus,
		Tracer:            pt.Tracer,
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
		epoch := pt.TokenEpoch
		if epoch == 0 {
			epoch = 100 * sim.Microsecond
		}
		agent := &policy.TokenAgent{
			Tokens:   dep.Maps["tokens"],
			LSUser:   pt.LSUser,
			BEUser:   pt.BEUser,
			PerEpoch: uint64(pt.TokenRate * float64(epoch) / 1e9),
			Epoch:    epoch,
		}
		agent.Start(host.Eng)
	default:
		mustDeploy(app, string(pt.Policy), defines)
	}
	if pt.SwapTo != "" {
		host.Eng.At(pt.Windows.Warmup+pt.Windows.Measure/2, func() {
			mustDeploy(app, string(pt.SwapTo), defines)
		})
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
		for i, th := range srv.Threads() {
			slotOf[th.ID] = i
		}
		pol := &policy.GetPriority{
			TypeOf: func(t *kernel.Thread) uint64 {
				v, _ := scanState.Raw().LookupUint64(uint32(slotOf[t.ID]))
				return v
			},
		}
		workers := make([]int, pt.NumCPUs-1)
		for i := range workers {
			workers[i] = i
		}
		agent, err := app.DeployThreadPolicy(pol, pt.NumCPUs-1, workers, ghost.Config{})
		if err != nil {
			panic(err)
		}
		for _, th := range srv.Threads() {
			if err := agent.Register(th); err != nil {
				panic(err)
			}
		}
	}

	srv.Start()
	return gen.RunToCompletion(), srv, host
}

func mustDeploy(app *syrup.App, name string, defines map[string]int64) {
	if _, err := app.DeployBuiltin(name, syrup.HookSocketSelect, defines); err != nil {
		panic(fmt.Sprintf("experiments: deploy %s: %v", name, err))
	}
}
