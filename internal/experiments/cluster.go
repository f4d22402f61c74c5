package experiments

import (
	"fmt"
	"strings"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/cluster"
	"syrup/internal/ebpf"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// ClusterConfig parameterizes the fleet-scale scenario: N simulated hosts
// behind the Maglev L4 LB, a cluster-addressable flow pool partitioned by
// consistent hashing, and policy deployment through the cluster control
// plane's staged rollout.
type ClusterConfig struct {
	// Hosts is the fleet size (default 4).
	Hosts int
	// Workers is the simulation worker-pool size (<= 0: one per CPU).
	// Results are bit-identical at any value; only wall-clock changes.
	Workers int
	// Seed drives every cluster decision and derives each host's seed
	// (default 42).
	Seed uint64
	// App picks the scenario: "rocksdb" (LS/BE token-QoS colocation, the
	// Fig. 7 setup at fleet scale) or "mica" (keyspace sharded across
	// hosts, the Fig. 9 kernel-steering setup at fleet scale).
	App string
	// TotalLoad is the fleet-wide offered RPS, split across hosts by flow
	// share (default 400 K x Hosts — each host at the Fig. 7 operating
	// point).
	TotalLoad float64
	// Flows is the cluster-addressable flow pool size (default 1<<20).
	Flows int
	// LSFrac is the latency-sensitive share of the load (rocksdb; default
	// 0.5).
	LSFrac float64
	// TokenFrac sets each host's LS token rate as a fraction of its
	// offered load (rocksdb; default 0.875, the paper's 350K/400K).
	TokenFrac float64
	// Canaries overrides the rollout's stage-1 host count (0 = default).
	Canaries int
	// SLOs, when set, gate the rollout's canary bake on burn-rate
	// objectives evaluated against the canaries' merged telemetry (see
	// cluster.RolloutConfig.SLOs). Requires telemetry (SetObsPeriod).
	SLOs    []obs.SLO
	Windows Windows
}

func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.App == "" {
		cfg.App = "rocksdb"
	}
	if cfg.TotalLoad == 0 {
		cfg.TotalLoad = 400_000 * float64(cfg.Hosts)
	}
	if cfg.Flows == 0 {
		cfg.Flows = 1 << 20
	}
	if cfg.LSFrac == 0 {
		cfg.LSFrac = 0.5
	}
	if cfg.TokenFrac == 0 {
		cfg.TokenFrac = 0.875
	}
	if cfg.Windows == (Windows{}) {
		cfg.Windows = DefaultWindows
	}
	return cfg
}

// MemberRun is one host's share of a cluster run.
type MemberRun struct {
	Name  string
	Flows int
	// Rate is the host's offered RPS (its share of TotalLoad).
	Rate   float64
	Result *workload.Result
	// Foreign counts requests the host's server refused as belonging to
	// another shard (mica only; nonzero only for rollout probe traffic —
	// workload clients are shard-aware).
	Foreign uint64
}

// ClusterRun is the outcome of one fleet scenario.
type ClusterRun struct {
	Hosts   int
	App     string
	Seed    uint64
	Rollout *cluster.RolloutReport
	Members []MemberRun
	// Fleet aggregates every member's stats (histograms merged exactly).
	Fleet *workload.Result
}

// RunCluster builds the cluster, splits the flow pool across hosts via
// Maglev steering, deploys the scenario's policy through the control
// plane's staged rollout, then runs every host simulation on the worker
// pool and merges the results. Bit-identical per (seed, config) at any
// Workers value: hosts share no simulation state, cluster decisions come
// from the cluster seed alone, and aggregation is index-addressed.
func RunCluster(cfg ClusterConfig) (*ClusterRun, error) {
	cfg = cfg.withDefaults()

	hostCfg := syrup.HostConfig{NumCPUs: 6, NICQueues: 6, Telemetry: telemetryConfig()}
	if cfg.App == "mica" {
		hostCfg = syrup.HostConfig{NumCPUs: micaN, NICQueues: micaN, Telemetry: telemetryConfig()}
	}
	cl, err := cluster.New(cluster.Config{Hosts: cfg.Hosts, Seed: cfg.Seed, Host: hostCfg})
	if err != nil {
		return nil, err
	}

	base := workload.Config{
		Rate:    cfg.TotalLoad,
		Flows:   cfg.Flows,
		Warmup:  cfg.Windows.Warmup,
		Measure: cfg.Windows.Measure,
		Drain:   cfg.Windows.Drain,
	}
	switch cfg.App {
	case "rocksdb":
		base.DstPort = rocksPort
		base.Classes = []workload.Class{
			{Name: "LS", Weight: cfg.LSFrac, Type: policy.ReqGET, UserID: 0},
			{Name: "BE", Weight: 1 - cfg.LSFrac, Type: policy.ReqGET, UserID: 1},
		}
	case "mica":
		base.DstPort = micaPort
		base.KeySpace = 1 << 20
		base.Classes = []workload.Class{
			{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
			{Name: "PUT", Weight: 0.5, Type: policy.ReqPUT},
		}
	default:
		return nil, fmt.Errorf("cluster scenario: unknown app %q (want rocksdb or mica)", cfg.App)
	}
	parts := cl.Split(base)

	// Per-host topology: app registration, server, workload generator.
	// Sequential on purpose — each host's construction consumes only its
	// own PRNG, and the control plane needs every app registered before
	// the rollout.
	gens := make([]*workload.Generator, cfg.Hosts)
	micaSrvs := make([]*mica.Server, cfg.Hosts)
	for i, m := range cl.Members {
		part := parts[i]
		switch cfg.App {
		case "rocksdb":
			app, err := m.Host.RegisterApp(rocksApp, rocksUID, rocksPort)
			if err != nil {
				return nil, err
			}
			gen := workload.New(m.Host.Eng, m.Host.NIC, part)
			if _, err := app.CreateMap(ebpf.MapSpec{
				Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64,
			}); err != nil {
				return nil, err
			}
			srv := rocksdb.NewServer(m.Host.Eng, m.Host.Machine, m.Host.Stack, rocksdb.Config{
				Port: rocksPort, App: rocksApp, NumThreads: 6, PinToCores: true,
				Service: fig7Service, OnComplete: gen.Complete,
			})
			srv.Start()
			gens[i] = gen
			instrumentHost(m.Host, gen, part.Classes)
		case "mica":
			if _, err := m.Host.RegisterApp(micaApp, micaUID, micaPort); err != nil {
				return nil, err
			}
			part.KeyShard, part.KeyShards = i, cfg.Hosts
			gen := workload.New(m.Host.Eng, m.Host.NIC, part)
			srv := mica.NewServer(m.Host.Eng, m.Host.Machine, m.Host.Stack, mica.Config{
				Port: micaPort, App: micaApp, NumThreads: micaN, Mode: mica.ModeSyrupSW,
				Shard: i, NumShards: cfg.Hosts,
				OnComplete: gen.Complete,
			})
			srv.Start()
			gens[i] = gen
			micaSrvs[i] = srv
			instrumentHost(m.Host, gen, part.Classes)
		}
	}

	// Policy deployment through the control plane: canary stage, probe
	// bake, then fleet-wide.
	var rollout cluster.RolloutConfig
	switch cfg.App {
	case "rocksdb":
		rollout = cluster.RolloutConfig{
			App: rocksApp, Hook: syrup.HookSocketSelect,
			Policy: policy.NameToken, Canaries: cfg.Canaries, SLOs: cfg.SLOs,
		}
	case "mica":
		rollout = cluster.RolloutConfig{
			App: micaApp, Hook: syrup.HookXDPSkb,
			Policy:  policy.NameMicaHash,
			Defines: map[string]int64{"NUM_EXECUTORS": micaN},
			// Probe keys hash anywhere in the keyspace, so most probes are
			// foreign to any one shard and served as drops, not faults.
			Canaries: cfg.Canaries, SLOs: cfg.SLOs,
		}
	}
	rep, err := cl.Rollout(rollout)
	if err != nil {
		return nil, err
	}
	if rep.Aborted {
		return nil, fmt.Errorf("cluster scenario: %s", rep)
	}

	// Token agents (rocksdb): per-host userspace refill at TokenFrac of
	// the host's own offered rate, Fig. 7's epoch.
	if cfg.App == "rocksdb" {
		const epoch = 100 * sim.Microsecond
		for i, m := range cl.Members {
			agent := &policy.TokenAgent{
				Tokens:   m.Host.Daemon.App(rocksApp).Maps()["tokens"],
				LSUser:   0,
				BEUser:   1,
				PerEpoch: uint64(cfg.TokenFrac * parts[i].Rate * float64(epoch) / 1e9),
				Epoch:    epoch,
			}
			agent.Start(m.Host.Eng)
		}
	}

	// The parallel part: every host simulation to completion on the
	// worker pool, results stored by member index.
	results := make([]*workload.Result, cfg.Hosts)
	cl.RunAll(cfg.Workers, func(m *cluster.Member) {
		results[m.Index] = gens[m.Index].RunToCompletion()
	})

	run := &ClusterRun{Hosts: cfg.Hosts, App: cfg.App, Seed: cfg.Seed, Rollout: rep,
		Fleet: &workload.Result{All: metrics.NewRunStats(), PerClass: make(map[string]*metrics.RunStats)}}
	for i, m := range cl.Members {
		mr := MemberRun{Name: m.Name, Flows: parts[i].Flows, Rate: parts[i].Rate, Result: results[i]}
		if micaSrvs[i] != nil {
			mr.Foreign = micaSrvs[i].Foreign
		}
		run.Members = append(run.Members, mr)
		run.Fleet.All.Merge(results[i].All)
		for name, st := range results[i].PerClass {
			agg, ok := run.Fleet.PerClass[name]
			if !ok {
				agg = metrics.NewRunStats()
				run.Fleet.PerClass[name] = agg
			}
			agg.Merge(st)
		}
	}
	return run, nil
}

// Format renders the per-host table plus the fleet-aggregate row.
func (cr *ClusterRun) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== cluster: %d hosts, app=%s, seed=%d ==\n", cr.Hosts, cr.App, cr.Seed)
	fmt.Fprintf(&b, "%s\n\n", cr.Rollout)
	fmt.Fprintf(&b, "%10s %9s %13s %13s %9s %9s %9s %9s\n",
		"host", "flows", "offered_rps", "goodput_rps", "p50_us", "p99_us", "p999_us", "drop_pct")
	row := func(name string, flows int, st *metrics.RunStats) {
		offered := 0.0
		if st.WindowNanos > 0 {
			offered = float64(st.Offered) / (float64(st.WindowNanos) / 1e9)
		}
		fmt.Fprintf(&b, "%10s %9d %13.0f %13.0f %9.1f %9.1f %9.1f %9.2f\n",
			name, flows, offered, st.ThroughputRPS(),
			float64(st.Latency.Percentile(50))/1000,
			float64(st.Latency.Percentile(99))/1000,
			float64(st.Latency.Percentile(99.9))/1000,
			100*st.DropFraction())
	}
	totalFlows := 0
	for _, m := range cr.Members {
		row(m.Name, m.Flows, m.Result.All)
		totalFlows += m.Flows
	}
	row("FLEET", totalFlows, cr.Fleet.All)
	for _, name := range []string{"LS", "BE"} {
		if st, ok := cr.Fleet.PerClass[name]; ok {
			row("fleet/"+name, totalFlows, st)
		}
	}
	return b.String()
}

// Digest renders the full per-host + fleet statistics: the worker-count
// differential gate diffs two of these byte-for-byte.
func (cr *ClusterRun) Digest() string {
	var b strings.Builder
	for _, m := range cr.Members {
		fmt.Fprintf(&b, "== %s flows=%d rate=%.6f foreign=%d ==\n%s",
			m.Name, m.Flows, m.Rate, m.Foreign, StatsDigest(m.Result))
	}
	fmt.Fprintf(&b, "== fleet ==\n%s", StatsDigest(cr.Fleet))
	return b.String()
}
