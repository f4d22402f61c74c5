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
func once[T any](key string, fn func() T) T {
	memoMu.Lock()
	m := memos[key]
	if m == nil {
		m = new(memo)
		memos[key] = m
	}
	memoMu.Unlock()
	m.once.Do(func() { m.v = fn() })
	return m.v.(T)
}

type memo struct {
	once sync.Once
	v    any
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
	res, _, host := runRocksPointFull(pt)
	return hostDigest(res, host)
}

func micaDigest(pt micaPoint) string {
	res, host := runMicaPoint(pt)
	return hostDigest(res, host)
}

// The figure slices the obs-diff gates run with the sampler on; their
// sampler-off legs are the pinned scenarios of the same name.
func fig2Slice(pol SocketPolicy) rocksPoint {
	return rocksPoint{
		Seed: 1007, Load: 300_000, NumCPUs: 6, NumThreads: 6,
		PinToCores: true, Flows: 50,
		Classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
		Policy:  pol, Windows: diffWindows,
	}
}

func fig6Slice(pol SocketPolicy) rocksPoint {
	return rocksPoint{
		Seed: 2011, Load: 200_000, NumCPUs: 6, NumThreads: 6,
		PinToCores: true, Flows: 50,
		Classes: fig6Mix, Policy: pol, Windows: diffWindows,
	}
}

func fig8Slice() rocksPoint {
	return rocksPoint{
		Seed: 47, Load: 120_000, NumCPUs: 6, NumThreads: 36,
		PinToCores: false, Classes: fig8Mix,
		Policy: PolicyScanAvoid, ThreadSched: true, Windows: diffWindows,
	}
}

func fig9Slice(mode mica.Mode) micaPoint {
	return micaPoint{Seed: 53, Load: 800_000, Mode: mode, GetFrac: 0.5, Windows: diffWindows}
}

// swapPoint is TestShapeHotSwapMidMeasure's point: round_robin replaced by
// scan_avoid halfway through the measure window.
func swapPoint() rocksPoint {
	pt := fig2Point(PolicyRoundRobin, 100_000, 5)
	pt.SwapTo = PolicyScanAvoid
	pt.Windows = FastWindows
	return pt
}

// The 4-host fleets of the cluster-diff gates.
func fleetRocks(workers int) ClusterConfig {
	return ClusterConfig{
		Hosts: 4, Workers: workers, Seed: 42,
		App: "rocksdb", TotalLoad: 4 * 120_000, Flows: 2000,
		Windows: diffWindows,
	}
}

func fleetMica(workers int) ClusterConfig {
	return ClusterConfig{
		Hosts: 4, Workers: workers, Seed: 7,
		App: "mica", TotalLoad: 4 * 200_000, Flows: 2000,
		Windows: diffWindows,
	}
}

func clusterDigest(cfg ClusterConfig) string {
	r, err := RunCluster(cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	return r.Digest()
}

// adaptDigest is the -adapt demo: every contestant's digest, event count
// and decision log, in display order.
func adaptDigest() string {
	var b strings.Builder
	cfg := DefaultAdaptive()
	for _, s := range adaptivePolicies {
		res, _, host := runRocksPointFull(adaptivePoint(cfg, s.Policy, s.Adaptive))
		fmt.Fprintf(&b, "== %s ==\n%s", s.Name, hostDigest(res, host))
		if ctl := host.Daemon.AdaptController(); ctl != nil {
			for _, d := range ctl.History() {
				fmt.Fprintf(&b, "decision: %s\n", d)
			}
		}
	}
	return b.String()
}

// chaosDigest is `syrup-bench -fast -faults default`: the clean and the
// chaotic half, and what the watchdog and the injector did.
func chaosDigest() string {
	cr := RunChaos(ChaosConfig{Windows: FastWindows})
	return "== clean ==\n" + hostDigest(cr.Clean, cr.CleanHost) +
		"== chaos ==\n" + hostDigest(cr.Chaos, cr.ChaosHost) +
		fmt.Sprintf("quarantines=%d injected=%d\n", cr.Quarantines(), cr.ChaosHost.Faults.Total())
}

// pinned lists every scenario golden.txt holds, in file order.
var pinned = []struct {
	name string
	seed uint64
	run  func() string
}{
	{"fig2/vanilla", 1007, func() string { return rocksDigest(fig2Slice(PolicyVanilla)) }},
	{"fig2/round_robin", 1007, func() string { return rocksDigest(fig2Slice(PolicyRoundRobin)) }},
	{"fig6/scan_avoid", 2011, func() string { return rocksDigest(fig6Slice(PolicyScanAvoid)) }},
	{"fig6/sita", 2011, func() string { return rocksDigest(fig6Slice(PolicySITA)) }},
	{"fig8/scan_avoid+threadsched", 47, func() string { return rocksDigest(fig8Slice()) }},
	{"fig9/sw", 53, func() string { return micaDigest(fig9Slice(mica.ModeSyrupSW)) }},
	{"fig9/hw", 53, func() string { return micaDigest(fig9Slice(mica.ModeSyrupHW)) }},
	{"swap/round_robin->scan_avoid", 5, func() string { return rocksDigest(swapPoint()) }},
	{"chaos/default", 1, chaosDigest},
	{"adapt/demo", 61, adaptDigest},
	{"fleet/rocksdb-4", 42, func() string { return clusterDigest(fleetRocks(1)) }},
	{"fleet/mica-4", 7, func() string { return clusterDigest(fleetMica(1)) }},
}

// pinnedDigest runs (once) the pinned scenario of that name.
func pinnedDigest(name string) string {
	for _, sc := range pinned {
		if sc.name == name {
			return once(name, sc.run)
		}
	}
	panic("experiments: no pinned scenario " + name)
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
