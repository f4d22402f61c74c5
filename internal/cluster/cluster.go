package cluster

import (
	"fmt"

	"syrup"
	"syrup/internal/par"
	"syrup/internal/workload"
)

// Config describes a cluster.
type Config struct {
	// Hosts is the member count.
	Hosts int
	// Seed drives every cluster-level decision (member seeds, the Maglev
	// table, flow pools, canary selection). Zero means seed 1.
	Seed uint64
	// TableSize is the Maglev lookup-table size (prime; default 65537).
	TableSize int
	// Host is the per-member template. Seed, HostID, and Name are derived
	// per member; everything else is shared.
	Host syrup.HostConfig
	// Tune, when set, adjusts member i's derived config before the host
	// is built — the seam for per-member fault plans, tracers, or
	// asymmetric hardware.
	Tune func(i int, cfg *syrup.HostConfig)
}

// Member is one host in the cluster.
type Member struct {
	Index int
	Name  string
	Seed  uint64
	Host  *syrup.Host
}

// Cluster owns N independent simulated hosts behind the Maglev L4 LB.
// Hosts never share simulation state; they may run concurrently.
type Cluster struct {
	cfg     Config
	Table   *Table
	Members []*Member
	// released remembers the last fleet-wide release per (app, hook) so an
	// aborted canary stage can restore it.
	released map[releaseKey]release
}

// MemberSeed derives member i's host seed from the cluster seed: distinct,
// deterministic, and never zero (zero would alias the "default seed"
// path).
func MemberSeed(clusterSeed uint64, i int) uint64 {
	s := splitmix64(clusterSeed ^ splitmix64(uint64(i)+0x636c7573746572)) // "cluster"
	if s == 0 {
		s = 1
	}
	return s
}

// MemberName names member i ("host-07"); the Maglev backend identity.
func MemberName(i int) string { return fmt.Sprintf("host-%02d", i) }

// New builds the cluster: the Maglev table over member names, then every
// member host with its derived seed and identity. Construction is
// sequential (each host's setup consumes only its own PRNG, so order is
// irrelevant to determinism but keeps Tune callbacks simple).
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("cluster: Hosts must be positive, got %d", cfg.Hosts)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.TableSize == 0 {
		cfg.TableSize = DefaultTableSize
	}
	names := make([]string, cfg.Hosts)
	for i := range names {
		names[i] = MemberName(i)
	}
	table, err := NewTable(names, cfg.TableSize, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, Table: table, released: make(map[releaseKey]release)}
	for i := 0; i < cfg.Hosts; i++ {
		hcfg := cfg.Host
		hcfg.Seed = MemberSeed(cfg.Seed, i)
		hcfg.HostID = i
		hcfg.Name = names[i]
		if cfg.Tune != nil {
			cfg.Tune(i, &hcfg)
		}
		host, err := syrup.TryNewHost(hcfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: member %d: %w", i, err)
		}
		c.Members = append(c.Members, &Member{Index: i, Name: names[i], Seed: hcfg.Seed, Host: host})
	}
	return c, nil
}

// Steer is the L4 load balancer: flow hash -> member index via the Maglev
// table. Every packet of a flow lands on the same host.
func (c *Cluster) Steer(flowHash uint32) int { return c.Table.Lookup(flowHash) }

// RunAll runs fn for every member on a worker pool of the given size
// (workers <= 0 = one per CPU). Members are independent simulations and
// results must be stored by member index, so output is bit-identical at
// any worker count.
func (c *Cluster) RunAll(workers int, fn func(m *Member)) {
	par.Do(len(c.Members), workers, func(i int) { fn(c.Members[i]) })
}

// Split is the cluster workload splitter: it draws base.Flows
// cluster-addressable flows from the cluster seed (never from any host's
// PRNG), steers each through the Maglev table once, and returns one
// per-member workload config holding that member's flow share with the
// offered rate scaled by pool share. Rates sum to base.Rate; flow sets
// partition the pool.
//
// The shares are a counting sort of the pool by member: member i's FlowSet
// is the i-th window of one array, in draw order, with its capacity capped
// at its length so an append cannot run into member i+1's flows. A member
// the LB steers nothing to gets an empty, non-nil FlowSet and rate 0.
func (c *Cluster) Split(base workload.Config) []workload.Config {
	pool := c.DrawFlows(base.Flows)
	owner := make([]int32, len(pool))
	// pos[h+1] counts member h's flows; summed, pos[h] is where its window
	// starts, and after the scatter, where it ends.
	pos := make([]int, len(c.Members)+1)
	for i, f := range pool {
		h := c.Steer(f.Hash())
		owner[i] = int32(h)
		pos[h+1]++
	}
	for h := range c.Members {
		pos[h+1] += pos[h]
	}
	flat := make([]workload.Flow, len(pool))
	for i, f := range pool {
		flat[pos[owner[i]]] = f
		pos[owner[i]]++
	}
	out := make([]workload.Config, len(c.Members))
	lo := 0
	for i := range out {
		cfg := base
		cfg.FlowSet = flat[lo:pos[i]:pos[i]]
		cfg.Flows = len(cfg.FlowSet)
		cfg.Rate = base.Rate * float64(cfg.Flows) / float64(len(pool))
		out[i] = cfg
		lo = pos[i]
	}
	return out
}

// DrawFlows draws n distinct flows (1024 if n <= 0) from the cluster
// seed's dedicated splitmix stream, one 64-bit draw per candidate.
func (c *Cluster) DrawFlows(n int) []workload.Flow {
	if n <= 0 {
		n = 1024
	}
	state := splitmix64(c.cfg.Seed ^ 0x666c6f7773) // "flows"
	return workload.DrawFlows(n, func() workload.Flow {
		state = splitmix64(state)
		return workload.Flow{
			IP:   0x0a000000 + uint32(state&0xffff),
			Port: uint16(1024 + (state>>16)%60000),
		}
	})
}
