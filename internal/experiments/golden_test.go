package experiments

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Bit-identity as a tier-1 gate: testdata/golden.txt pins, per scenario
// and seed, the SHA-256 of everything a client can observe of the run plus
// the number of events the engine fired. A change that means to keep
// behaviour must leave the file alone; one that means to move it runs
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// and shows the changed lines in review.
var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree's behaviour")

const goldenFile = "testdata/golden.txt"

// once runs fn the first time key is asked for and hands every later
// caller the same value: the differential gates use a pinned scenario as
// their reference leg, so each is simulated once per `go test`.
func once(key string, fn func() string) string {
	memoMu.Lock()
	m := memos[key]
	if m == nil {
		m = new(memo)
		memos[key] = m
	}
	memoMu.Unlock()
	m.once.Do(func() { m.digest = fn() })
	return m.digest
}

type memo struct {
	once   sync.Once
	digest string
}

var (
	memoMu sync.Mutex
	memos  = map[string]*memo{}
)

// hostDigest is what a single-host scenario pins.
func hostDigest(res *workload.Result, host *syrup.Host) string {
	return StatsDigest(res) + fmt.Sprintf("fired=%d\n", host.Eng.Fired())
}

func rocksDigest(pt rocksPoint) string {
	run := runRocksPoint(pt)
	return hostDigest(run.Result, run.Host)
}

func micaDigest(pt micaPoint) string {
	res, host := runMicaPoint(pt)
	return hostDigest(res, host)
}

// The figure slices the obs-diff gates run with the sampler on; their
// sampler-off legs are the pinned scenarios of the same name. Each takes
// how the run observes and parallelises itself and fixes its own windows.
func fig2Slice(pol SocketPolicy, rc RunConfig) rocksPoint {
	rc.Windows = diffWindows
	return rocksPoint{
		Seed: 1007, Load: 300_000, NumCPUs: 6, NumThreads: 6,
		PinToCores: true, Flows: 50,
		Classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
		Policy:  pol, Run: rc,
	}
}

func fig6Slice(pol SocketPolicy, rc RunConfig) rocksPoint {
	rc.Windows = diffWindows
	return rocksPoint{
		Seed: 2011, Load: 200_000, NumCPUs: 6, NumThreads: 6,
		PinToCores: true, Flows: 50,
		Classes: fig6Mix, Policy: pol, Run: rc,
	}
}

func fig8Slice(rc RunConfig) rocksPoint {
	rc.Windows = diffWindows
	return rocksPoint{
		Seed: 47, Load: 120_000, NumCPUs: 6, NumThreads: 36,
		PinToCores: false, Classes: fig8Mix,
		Policy: PolicyScanAvoid, ThreadSched: true, Run: rc,
	}
}

func fig9Slice(mode mica.Mode, rc RunConfig) micaPoint {
	rc.Windows = diffWindows
	return micaPoint{Seed: 53, Load: 800_000, Mode: mode, GetFrac: 0.5, Run: rc}
}

// swapPoint is TestShapeHotSwapMidMeasure's point: round_robin replaced by
// scan_avoid halfway through the measure window.
func swapPoint(rc RunConfig) rocksPoint {
	rc.Windows = FastWindows
	pt := fig2Point(PolicyRoundRobin, 100_000, 5)
	pt.SwapTo, pt.Run = PolicyScanAvoid, rc
	return pt
}

// The 4-host fleets of the cluster-diff gates.
func fleetRocks(rc RunConfig) ClusterConfig {
	rc.Windows = diffWindows
	return ClusterConfig{
		Hosts: 4, Seed: 42,
		App: "rocksdb", TotalLoad: 4 * 120_000, Flows: 2000,
		Run: rc,
	}
}

func fleetMica(rc RunConfig) ClusterConfig {
	rc.Windows = diffWindows
	return ClusterConfig{
		Hosts: 4, Seed: 7,
		App: "mica", TotalLoad: 4 * 200_000, Flows: 2000,
		Run: rc,
	}
}

// smallPool moves a fleet to seed 23 and a 2^10-flow pool, which Maglev
// splits 266/239/262/257: a second cluster draw whose shares are uneven
// and small, beside the 2000-flow rows above.
func smallPool(cfg ClusterConfig) ClusterConfig {
	cfg.Seed, cfg.Flows = 23, 1<<10
	return cfg
}

func clusterDigest(cfg ClusterConfig) string {
	r, err := RunCluster(cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	return r.Digest()
}

// adaptDigest is the -adapt demo: every contestant's digest, event count
// and decision log, in display order. The scenario fixes its own sampling
// period (the control tick), so it takes nothing from rc.
func adaptDigest(RunConfig) string {
	var b strings.Builder
	cfg := DefaultAdaptive()
	for _, s := range adaptivePolicies {
		run, decisions := runAdaptivePoint(cfg, s.Policy, s.Adaptive)
		fmt.Fprintf(&b, "== %s ==\n%s", s.Name, hostDigest(run.Result, run.Host))
		for _, d := range decisions {
			fmt.Fprintf(&b, "decision: %s\n", d)
		}
	}
	return b.String()
}

// chaosDigest is `syrup-bench -fast -faults default`: the clean and the
// chaotic half, and what the watchdog and the injector did.
func chaosDigest(rc RunConfig) string {
	rc.Windows = FastWindows
	cr := RunChaos(ChaosConfig{Run: rc})
	return "== clean ==\n" + hostDigest(cr.Clean, cr.CleanHost) +
		"== chaos ==\n" + hostDigest(cr.Chaos, cr.ChaosHost) +
		fmt.Sprintf("quarantines=%d injected=%d\n", cr.Quarantines(), cr.ChaosHost.Faults.Total())
}

// pinned lists every scenario golden.txt holds, in file order. run takes
// the part of the run config a differential gate varies — ObsPeriod,
// Workers — and golden.txt records the zero value's digest.
var pinned = []struct {
	name string
	seed uint64
	run  func(rc RunConfig) string
}{
	{"fig2/vanilla", 1007, func(rc RunConfig) string { return rocksDigest(fig2Slice(PolicyVanilla, rc)) }},
	{"fig2/round_robin", 1007, func(rc RunConfig) string { return rocksDigest(fig2Slice(PolicyRoundRobin, rc)) }},
	{"fig6/scan_avoid", 2011, func(rc RunConfig) string { return rocksDigest(fig6Slice(PolicyScanAvoid, rc)) }},
	{"fig6/sita", 2011, func(rc RunConfig) string { return rocksDigest(fig6Slice(PolicySITA, rc)) }},
	{"fig8/scan_avoid+threadsched", 47, func(rc RunConfig) string { return rocksDigest(fig8Slice(rc)) }},
	{"fig9/sw", 53, func(rc RunConfig) string { return micaDigest(fig9Slice(mica.ModeSyrupSW, rc)) }},
	{"fig9/hw", 53, func(rc RunConfig) string { return micaDigest(fig9Slice(mica.ModeSyrupHW, rc)) }},
	{"swap/round_robin->scan_avoid", 5, func(rc RunConfig) string { return rocksDigest(swapPoint(rc)) }},
	{"chaos/default", 1, chaosDigest},
	{"adapt/demo", 61, adaptDigest},
	{"fleet/rocksdb-4", 42, func(rc RunConfig) string { return clusterDigest(fleetRocks(rc)) }},
	{"fleet/mica-4", 7, func(rc RunConfig) string { return clusterDigest(fleetMica(rc)) }},
	{"fleet/rocksdb-4-pool1024", 23, func(rc RunConfig) string { return clusterDigest(smallPool(fleetRocks(rc))) }},
	{"fleet/mica-4-pool1024", 23, func(rc RunConfig) string { return clusterDigest(smallPool(fleetMica(rc))) }},
}

// scenario finds a pinned scenario by name.
func scenario(name string) func(RunConfig) string {
	for _, sc := range pinned {
		if sc.name == name {
			return sc.run
		}
	}
	panic("experiments: no pinned scenario " + name)
}

// pinnedDigest runs (once) the pinned scenario of that name as golden.txt
// records it: no sampler, default pool width.
func pinnedDigest(name string) string {
	return once(name, func() string { return scenario(name)(RunConfig{}) })
}

func TestGolden(t *testing.T) {
	var got strings.Builder
	for _, sc := range pinned {
		if strings.ContainsAny(sc.name, " \t") {
			t.Fatalf("scenario name %q has whitespace", sc.name)
		}
		fmt.Fprintf(&got, "%s seed=%d %x\n", sc.name, sc.seed, sha256.Sum256([]byte(pinnedDigest(sc.name))))
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenFile)
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, _, _ := strings.Cut(sc.Text(), " ")
		want[name] = sc.Text()
	}
	for _, line := range strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if want[name] != line {
			t.Errorf("%s moved:\n  golden %s\n  got    %s\n%s", name, want[name], line, pinnedDigest(name))
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s names %s, which no scenario produces", goldenFile, name)
	}
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
