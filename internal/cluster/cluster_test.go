package cluster

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"syrup"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

func TestMemberSeedsDistinctNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		s := MemberSeed(42, i)
		if s == 0 {
			t.Fatalf("member %d seed is zero", i)
		}
		if seen[s] {
			t.Fatalf("member %d seed %d collides", i, s)
		}
		seen[s] = true
	}
	if MemberSeed(42, 0) == MemberSeed(43, 0) {
		t.Fatal("member 0 seed identical across cluster seeds")
	}
}

func TestClusterConstruction(t *testing.T) {
	tuned := 0
	c, err := New(Config{
		Hosts: 4,
		Seed:  42,
		Host:  syrup.HostConfig{NumCPUs: 2},
		Tune: func(i int, cfg *syrup.HostConfig) {
			tuned++
			if cfg.Seed != MemberSeed(42, i) {
				t.Fatalf("member %d: Tune sees seed %d, want %d", i, cfg.Seed, MemberSeed(42, i))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned != 4 {
		t.Fatalf("Tune ran %d times, want 4", tuned)
	}
	for i, m := range c.Members {
		if m.Index != i || m.Host.ID != i {
			t.Fatalf("member %d: index/ID mismatch (%d/%d)", i, m.Index, m.Host.ID)
		}
		if m.Name != MemberName(i) || m.Host.Name != MemberName(i) {
			t.Fatalf("member %d: name %q/%q, want %q", i, m.Name, m.Host.Name, MemberName(i))
		}
		if m.Host.Machine == nil {
			t.Fatalf("member %d: template NumCPUs not applied", i)
		}
	}
	if _, err := New(Config{Hosts: 0}); err == nil {
		t.Fatal("zero-host cluster accepted")
	}
}

func TestDrawFlowsDeterministicDistinct(t *testing.T) {
	c, err := New(Config{Hosts: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a := c.DrawFlows(1000)
	b := c.DrawFlows(1000)
	if len(a) != 1000 {
		t.Fatalf("drew %d flows, want 1000", len(a))
	}
	seen := make(map[workload.Flow]bool)
	for i, f := range a {
		if f != b[i] {
			t.Fatalf("flow %d differs across draws from same seed", i)
		}
		if seen[f] {
			t.Fatalf("duplicate flow %v", f)
		}
		seen[f] = true
	}
}

// TestSplitPartitionsPool: Split must partition the flow pool by Maglev
// steering with rates summing to the base rate — the invariant that makes
// a cluster run comparable to a single-host run at the same total load.
func TestSplitPartitionsPool(t *testing.T) {
	c, err := New(Config{Hosts: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Config{Rate: 400_000, Flows: 2000}
	parts := c.Split(base)
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	totalFlows, totalRate := 0, 0.0
	seen := make(map[workload.Flow]int)
	for i, p := range parts {
		if p.Flows != len(p.FlowSet) {
			t.Fatalf("part %d: Flows=%d but FlowSet has %d", i, p.Flows, len(p.FlowSet))
		}
		totalFlows += p.Flows
		totalRate += p.Rate
		for _, f := range p.FlowSet {
			if owner, dup := seen[f]; dup {
				t.Fatalf("flow %v assigned to members %d and %d", f, owner, i)
			}
			seen[f] = i
			if got := c.Steer(f.Hash()); got != i {
				t.Fatalf("flow %v in part %d but Steer says %d", f, i, got)
			}
		}
	}
	if totalFlows != 2000 {
		t.Fatalf("parts hold %d flows, want 2000", totalFlows)
	}
	if totalRate < base.Rate*0.999 || totalRate > base.Rate*1.001 {
		t.Fatalf("part rates sum to %.1f, want %.1f", totalRate, base.Rate)
	}

	// The shares alias one array, so each is capped at its own length (an
	// append copies instead of writing into the next member's flows), and
	// each keeps the order the pool was drawn in.
	pool := c.DrawFlows(base.Flows)
	for i, p := range parts {
		if cap(p.FlowSet) != len(p.FlowSet) {
			t.Fatalf("part %d: cap %d, len %d", i, cap(p.FlowSet), len(p.FlowSet))
		}
		var want []workload.Flow
		for _, f := range pool {
			if seen[f] == i {
				want = append(want, f)
			}
		}
		if !slices.Equal(p.FlowSet, want) {
			t.Fatalf("part %d is not its flows in draw order", i)
		}
	}

	// Set-up cost is one draw, one steering pass and one partition: the
	// allocation count does not grow with the pool. (The collector is held
	// off while counting: each cycle it runs adds runtime allocations of
	// its own, and a larger pool runs more of them.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { c.Split(workload.Config{Rate: 1, Flows: n}) })
	}
	if small, large := allocs(1<<12), allocs(1<<16); small != large {
		t.Fatalf("Split allocates %v times for 2^12 flows and %v for 2^16", small, large)
	}
}

// TestSplitRetainsFourBytesPerFlow: what Split's shares keep alive is one
// array of 4-byte flows — 1.0 MiB for 2^18 of them, where 8-byte {IP, Port}
// flows held 2.0 MiB. The draw's table and the steering scratch are
// garbage once Split returns.
func TestSplitRetainsFourBytesPerFlow(t *testing.T) {
	c, err := New(Config{Hosts: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	parts := c.Split(workload.Config{Rate: 1, Flows: 1 << 18})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(parts)
	runtime.KeepAlive(c)
	kept := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("Split of 2^18 flows retains %.3f MiB", kept)
	if kept > 1.1 {
		t.Fatalf("Split of 2^18 flows retains %.2f MiB, want <= 1.1", kept)
	}
}

// drawClusterFlowsOracle is Cluster.DrawFlows as it was written before the
// shared draw: the same draws, deduplicated by a map keyed by the padded
// 8-byte {IP, Port} struct flows were stored as, probed once per candidate.
func drawClusterFlowsOracle(seed uint64, n int) []workload.Flow {
	type legacyFlow struct {
		IP   uint32
		Port uint16
	}
	state := splitmix64(seed ^ 0x666c6f7773)
	seen := make(map[legacyFlow]bool, n)
	flows := make([]workload.Flow, 0, n)
	for len(flows) < n {
		state = splitmix64(state)
		f := legacyFlow{
			IP:   0x0a000000 + uint32(state&0xffff),
			Port: uint16(1024 + (state>>16)%60000),
		}
		if seen[f] {
			continue
		}
		seen[f] = true
		flows = append(flows, workload.Flow{Host: uint16(f.IP), Port: f.Port})
	}
	return flows
}

// TestDrawFlowsMatchesMapOracle: the cluster pool is exactly the first n
// distinct flows of the seed's stream, in stream order, as the map loop
// drew them — up to 2^20 flows, where the 16 low IP bits and 60000 ports
// make repeats common enough to be skipped thousands of times.
func TestDrawFlowsMatchesMapOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		c, err := New(Config{Hosts: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 50, 1024, 1 << 16, 1 << 20} {
			if !slices.Equal(c.DrawFlows(n), drawClusterFlowsOracle(seed, n)) {
				t.Fatalf("seed %d n %d: pool differs from the map oracle", seed, n)
			}
		}
	}
}

// TestSingleFlowFleet: with one flow in the pool, three of four members get
// no flows and no load, and must offer and serve nothing — before, a
// member's empty share drew 1024 host-local flows and its zero rate clamped
// every arrival gap to 1 ns, so it sent a request per simulated nanosecond
// (`syrup-bench -hosts 4 -flows 1 -fast` did not finish).
func TestSingleFlowFleet(t *testing.T) {
	const app, uid, port = 3, 1003, 9100
	c, err := New(Config{Hosts: 4, Seed: 42, Host: syrup.HostConfig{NumCPUs: 2, NICQueues: 2}})
	if err != nil {
		t.Fatal(err)
	}
	parts := c.Split(workload.Config{
		Rate: 50_000, Flows: 1, DstPort: port,
		Warmup: 10 * sim.Microsecond, Measure: 200 * sim.Microsecond, Drain: 100 * sim.Microsecond,
	})
	loaded := 0
	for i, m := range c.Members {
		if _, err := m.Host.RegisterApp(app, uid, port); err != nil {
			t.Fatal(err)
		}
		gen := workload.New(m.Host.Eng, m.Host.NIC, parts[i])
		srv := rocksdb.NewServer(m.Host.Eng, m.Host.Machine, m.Host.Stack, rocksdb.Config{
			Port: port, App: app, NumThreads: 2, OnComplete: gen.Complete,
		})
		srv.Start()
		st := gen.RunToCompletion().All
		if err := m.Host.Daemon.Conserved(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if parts[i].Flows == 1 {
			loaded++
			if st.Offered == 0 || st.Completed != st.Offered {
				t.Errorf("%s: the one flow's member completed %d of %d", m.Name, st.Completed, st.Offered)
			}
			continue
		}
		if parts[i].Rate != 0 || st.Offered != 0 || srv.ProcessedGET != 0 {
			t.Errorf("%s: %d flows at rate %v offered %d requests and served %d, want none",
				m.Name, parts[i].Flows, parts[i].Rate, st.Offered, srv.ProcessedGET)
		}
	}
	if loaded != 1 {
		t.Fatalf("%d members hold the one flow, want 1", loaded)
	}
}

func TestRunAllVisitsEveryMemberOnce(t *testing.T) {
	c, err := New(Config{Hosts: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		visits := make([]int, 8)
		c.RunAll(workers, func(m *Member) { visits[m.Index]++ })
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: member %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestFleetPacketsStayPerHost: packets come from and go back to the NIC of
// the host that sent them, so four hosts that each generate, serve and
// free their own traffic share nothing: run on four workers they report
// exactly what they report on one, every request answered — and `make
// race` runs this with the detector watching the free lists.
func TestFleetPacketsStayPerHost(t *testing.T) {
	const app, uid, port = 3, 1003, 9100
	run := func(workers int) []string {
		c, err := New(Config{Hosts: 4, Seed: 42, Host: syrup.HostConfig{NumCPUs: 2, NICQueues: 2}})
		if err != nil {
			t.Fatal(err)
		}
		parts := c.Split(workload.Config{
			Rate: 400_000, Flows: 200, DstPort: port,
			Warmup: sim.Millisecond, Measure: 20 * sim.Millisecond, Drain: 2 * sim.Millisecond,
		})
		gens := make([]*workload.Generator, len(c.Members))
		for i, m := range c.Members {
			if _, err := m.Host.RegisterApp(app, uid, port); err != nil {
				t.Fatal(err)
			}
			gens[i] = workload.New(m.Host.Eng, m.Host.NIC, parts[i])
			rocksdb.NewServer(m.Host.Eng, m.Host.Machine, m.Host.Stack, rocksdb.Config{
				Port: port, App: app, NumThreads: 2, OnComplete: gens[i].Complete,
			}).Start()
		}
		out := make([]string, len(c.Members))
		c.RunAll(workers, func(m *Member) {
			st := gens[m.Index].RunToCompletion().All
			if err := m.Host.Daemon.Conserved(); err != nil {
				t.Errorf("workers=%d %s: %v", workers, m.Name, err)
			}
			if st.Offered == 0 || st.Completed != st.Offered {
				t.Errorf("workers=%d %s: completed %d of %d", workers, m.Name, st.Completed, st.Offered)
			}
			out[m.Index] = fmt.Sprintf("%v nic=%+v inflight=%d", st, m.Host.NIC.Stats, m.Host.NIC.InflightTotal())
		})
		return out
	}
	one, four := run(1), run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("host %d differs across worker counts:\n%s\n%s", i, one[i], four[i])
		}
	}
}
