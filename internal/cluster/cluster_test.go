package cluster

import (
	"fmt"
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
		Hosts:     4,
		Seed:      42,
		TableSize: 251,
		Host:      syrup.HostConfig{NumCPUs: 2},
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
	if _, err := New(Config{Hosts: 2, TableSize: 100}); err == nil {
		t.Fatal("non-prime table size accepted")
	}
}

func TestDrawFlowsDeterministicDistinct(t *testing.T) {
	c, err := New(Config{Hosts: 2, Seed: 42, TableSize: 251})
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
	c, err := New(Config{Hosts: 4, Seed: 42, TableSize: 251})
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
}

func TestRunAllVisitsEveryMemberOnce(t *testing.T) {
	c, err := New(Config{Hosts: 8, Seed: 1, TableSize: 251})
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
		c, err := New(Config{Hosts: 4, Seed: 42, TableSize: 251, Host: syrup.HostConfig{NumCPUs: 2, NICQueues: 2}})
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
				Port: port, App: app, NumThreads: 2, KeySpace: 64, OnComplete: gens[i].Complete,
			}).Start()
		}
		out := make([]string, len(c.Members))
		c.RunAll(workers, func(m *Member) {
			st := gens[m.Index].RunToCompletion().All
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
