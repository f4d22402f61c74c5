package experiments

import (
	"fmt"
	"strings"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/cluster"
	"syrup/internal/metrics"
	"syrup/internal/policy"
	"syrup/internal/workload"
)

// ClusterConfig parameterizes the fleet-scale scenario: N simulated hosts
// behind the Maglev L4 LB, a cluster-addressable flow pool partitioned by
// consistent hashing, and policy deployment through the cluster control
// plane's staged rollout.
type ClusterConfig struct {
	// Hosts is the fleet size (default 4).
	Hosts int
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
	// Run.Workers is the width of the pool the host simulations run on;
	// the fleet is bit-identical at any value, only wall-clock changes.
	Run RunConfig
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
	if cfg.LSFrac < 0 || cfg.LSFrac > 1 {
		return nil, fmt.Errorf("cluster scenario: LSFrac %v is outside [0, 1]", cfg.LSFrac)
	}

	base := cfg.Run.load(cfg.TotalLoad)
	base.Flows = cfg.Flows
	hostCfg := syrup.HostConfig{NumCPUs: 6, NICQueues: 6, Telemetry: cfg.Run.telemetry()}
	var rollout cluster.RolloutConfig
	switch cfg.App {
	case "rocksdb":
		base.Classes = []workload.Class{
			{Name: "LS", Weight: cfg.LSFrac, Type: policy.ReqGET, UserID: 0},
			{Name: "BE", Weight: 1 - cfg.LSFrac, Type: policy.ReqGET, UserID: 1},
		}
		rollout = cluster.RolloutConfig{
			App: rocksApp, Hook: syrup.HookSocketSelect, Policy: policy.NameToken,
		}
	case "mica":
		hostCfg.NumCPUs, hostCfg.NICQueues = micaN, micaN
		base.Classes = micaMix(0.5)
		// Probe keys hash anywhere in the keyspace, so most probes are
		// foreign to any one shard and served as drops, not faults.
		rollout = cluster.RolloutConfig{
			App: micaApp, Hook: syrup.HookXDPSkb, Policy: policy.NameMicaHash,
			Defines: map[string]int64{"NUM_EXECUTORS": micaN},
		}
	default:
		return nil, fmt.Errorf("cluster scenario: unknown app %q (want rocksdb or mica)", cfg.App)
	}
	cl, err := cluster.New(cluster.Config{Hosts: cfg.Hosts, Seed: cfg.Seed, Host: hostCfg})
	if err != nil {
		return nil, err
	}
	parts := cl.Split(base)

	// Per-host topology: app registration, the app's wiring, server start.
	// Sequential on purpose — each host's construction consumes only its
	// own PRNG, and the control plane needs every app registered before
	// the rollout.
	gens := make([]*workload.Generator, cfg.Hosts)
	micaSrvs := make([]*mica.Server, cfg.Hosts)
	for i, m := range cl.Members {
		switch cfg.App {
		case "rocksdb":
			app, err := m.Host.RegisterApp(rocksApp, rocksUID, rocksPort)
			if err != nil {
				return nil, err
			}
			w := WireRocksDB(m.Host, app, parts[i], rocksdb.Config{
				NumThreads: 6, PinToCores: true, Service: fig7Service,
			})
			w.Srv.Start()
			gens[i] = w.Gen
		case "mica":
			if _, err := m.Host.RegisterApp(micaApp, micaUID, micaPort); err != nil {
				return nil, err
			}
			parts[i].KeyShard, parts[i].KeyShards = i, cfg.Hosts
			gens[i], micaSrvs[i] = wireMICA(m.Host, parts[i], mica.Config{
				Mode: mica.ModeSyrupSW, Shard: i, NumShards: cfg.Hosts,
			})
			micaSrvs[i].Start()
		}
	}

	// Policy deployment through the control plane: canary stage, probe
	// bake, then fleet-wide.
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
		for i, m := range cl.Members {
			agent := &policy.TokenAgent{
				Tokens:   m.Host.Daemon.App(rocksApp).Maps()["tokens"],
				LSUser:   0,
				BEUser:   1,
				PerEpoch: uint64(cfg.TokenFrac * parts[i].Rate * float64(tokenEpoch) / 1e9),
				Epoch:    tokenEpoch,
			}
			agent.Start(m.Host.Eng)
		}
	}

	// The parallel part: every host simulation to completion on the
	// worker pool.
	results := finish(cfg.Run.Workers, gens...)
	run := &ClusterRun{Hosts: cfg.Hosts, App: cfg.App, Seed: cfg.Seed, Rollout: rep, Fleet: mergeFleet(results)}
	for i, m := range cl.Members {
		mr := MemberRun{Name: m.Name, Flows: parts[i].Flows, Rate: parts[i].Rate, Result: results[i]}
		if micaSrvs[i] != nil {
			mr.Foreign = micaSrvs[i].Foreign
		}
		run.Members = append(run.Members, mr)
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
