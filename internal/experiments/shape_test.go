package experiments

// Shape tests: every figure's qualitative claims from the paper — who
// wins, by roughly what factor, where the knees fall — asserted against
// the simulation. These are the regression net for the whole stack: a bug
// in the verifier, scheduler, or cost model shows up here.

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"syrup/internal/apps/mica"
	"syrup/internal/ebpf"
	"syrup/internal/policy"
	"syrup/internal/workload"
)

func rocksP99(t *testing.T, pt rocksPoint) (p99us float64, dropFrac float64) {
	t.Helper()
	pt.Run.Windows = FastWindows
	r := runRocksPoint(pt).Result
	return float64(r.All.Latency.Percentile(99)) / 1000, r.All.DropFraction()
}

func fig2Point(pol SocketPolicy, load float64, seed uint64) rocksPoint {
	return rocksPoint{
		Seed: seed, Load: load, NumCPUs: 6, NumThreads: 6, PinToCores: true,
		Flows:   50,
		Classes: []workload.Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}},
		Policy:  pol,
	}
}

// Fig. 2: at 400K RPS round robin keeps sub-200us tails while vanilla hash
// over 50 flows has either exploded latency or drops.
func TestShapeFig2RoundRobinBeatsVanilla(t *testing.T) {
	rrP99, rrDrop := rocksP99(t, fig2Point(PolicyRoundRobin, 400_000, 7))
	if rrP99 > 200 || rrDrop > 0.001 {
		t.Fatalf("round robin at 400K: p99=%.0fus drop=%.3f; paper sustains sub-200us", rrP99, rrDrop)
	}
	// Vanilla imbalance depends on the flow draw; across a few seeds at
	// least one must break badly, and on average it must be far worse.
	broken := false
	var worst float64
	for seed := uint64(1); seed <= 3; seed++ {
		p99, drop := rocksP99(t, fig2Point(PolicyVanilla, 400_000, seed))
		if p99 > worst {
			worst = p99
		}
		if p99 > 500 || drop > 0.01 {
			broken = true
		}
	}
	if !broken {
		t.Fatalf("vanilla hash at 400K never broke (worst p99 %.0fus); imbalance model missing", worst)
	}
}

// Live policy upgrade (§4.3): swapping the socket policy halfway through
// the measurement window loses no requests and keeps the tail healthy —
// the experiment-level view of Link.Replace under traffic.
func TestShapeHotSwapMidMeasure(t *testing.T) {
	pt := fig2Point(PolicyRoundRobin, 100_000, 5)
	pt.SwapTo = PolicyScanAvoid
	p99, drop := rocksP99(t, pt)
	if drop > 0.001 {
		t.Fatalf("hot swap dropped %.4f of requests", drop)
	}
	if p99 > 300 {
		t.Fatalf("hot swap p99 = %.0fus", p99)
	}
}

// Fig. 2 companion: at low load both policies are healthy.
func TestShapeFig2LowLoadHealthy(t *testing.T) {
	for _, pol := range []SocketPolicy{PolicyVanilla, PolicyRoundRobin} {
		p99, drop := rocksP99(t, fig2Point(pol, 100_000, 5))
		if p99 > 300 || drop > 0.001 {
			t.Fatalf("%s at 100K: p99=%.0fus drop=%.3f", pol, p99, drop)
		}
	}
}

func fig6Point(pol SocketPolicy, load float64) rocksPoint {
	return rocksPoint{
		Seed: 11, Load: load, NumCPUs: 6, NumThreads: 6, PinToCores: true,
		Flows: 50, Classes: fig6Mix, Policy: pol,
	}
}

// Fig. 6: SCAN Avoid keeps Gates low to 150K; SITA doubles that reach; the
// head-of-line-blocked baselines sit near SCAN latency.
func TestShapeFig6PolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long shape test")
	}
	// SCAN Avoid: <150us at 150K (paper's claim).
	saLow, _ := rocksP99(t, fig6Point(PolicyScanAvoid, 150_000))
	if saLow > 150 {
		t.Fatalf("SCAN Avoid p99 at 150K = %.0fus, want <150", saLow)
	}
	// SITA: still low at 300K (paper: <150us to 310K).
	sitaMid, _ := rocksP99(t, fig6Point(PolicySITA, 300_000))
	if sitaMid > 150 {
		t.Fatalf("SITA p99 at 300K = %.0fus, want <150", sitaMid)
	}
	// SCAN Avoid has degraded well above SITA by 300K.
	saMid, _ := rocksP99(t, fig6Point(PolicyScanAvoid, 300_000))
	if saMid < 2*sitaMid {
		t.Fatalf("SCAN Avoid (%.0fus) should be well above SITA (%.0fus) at 300K", saMid, sitaMid)
	}
	// Round robin suffers SCAN head-of-line blocking at moderate load:
	// tails reflect the 700us SCANs, roughly 8x the SCAN Avoid tail
	// (paper: 8x improvement over the defaults).
	rr, _ := rocksP99(t, fig6Point(PolicyRoundRobin, 150_000))
	if rr < 4*saLow {
		t.Fatalf("Round Robin p99 at 150K = %.0fus vs SCAN Avoid %.0fus; HOL blocking too weak", rr, saLow)
	}
}

// Fig. 7: the token policy protects the LS tenant's tail while gifting
// leftover capacity to BE.
func TestShapeFig7TokenQoS(t *testing.T) {
	if testing.Short() {
		t.Skip("long shape test")
	}
	run := func(pol SocketPolicy) *workload.Result {
		return runRocksPoint(rocksPoint{
			Seed: 31, Load: 400_000, NumCPUs: 6, NumThreads: 6, PinToCores: true,
			Classes: []workload.Class{
				{Name: "LS", Weight: 150_000.0 / 400_000, Type: policy.ReqGET, UserID: 0},
				{Name: "BE", Weight: 250_000.0 / 400_000, Type: policy.ReqGET, UserID: 1},
			},
			Policy: pol, Service: fig7Service,
			TokenRate: 350_000, LSUser: 0, BEUser: 1,
			Run: RunConfig{Windows: FastWindows},
		}).Result
	}
	rr := run(PolicyRoundRobin)
	tok := run(PolicyToken)
	rrLS := float64(rr.PerClass["LS"].Latency.Percentile(99)) / 1000
	tokLS := float64(tok.PerClass["LS"].Latency.Percentile(99)) / 1000
	if tokLS*3 > rrLS {
		t.Fatalf("token LS p99 %.0fus not ≪ round-robin %.0fus (paper: ~6x)", tokLS, rrLS)
	}
	// BE throughput under tokens ≈ leftover tokens (350K - 150K LS).
	beT := tok.PerClass["BE"].ThroughputRPS()
	if beT < 150_000 || beT > 240_000 {
		t.Fatalf("token BE throughput %.0f, want ≈200K (leftover tokens)", beT)
	}
	// Round robin serves more BE but at the LS user's expense.
	if rrBE := rr.PerClass["BE"].ThroughputRPS(); rrBE < beT {
		t.Fatalf("round-robin BE throughput %.0f below token %.0f", rrBE, beT)
	}
}

func fig8Point(pol SocketPolicy, threadSched bool, load float64) rocksPoint {
	return rocksPoint{
		Seed: 47, Load: load, NumCPUs: 6, NumThreads: 36,
		Classes: fig8Mix, Policy: pol, ThreadSched: threadSched,
	}
}

// getP99 runs a point and returns the GET class's p99 in µs (Fig. 8's
// panels are per-class; the 50% SCAN mix dominates the overall tail).
func getP99(pt rocksPoint) float64 {
	pt.Run.Windows = FastWindows
	r := runRocksPoint(pt).Result
	return float64(r.PerClass["GET"].Latency.Percentile(99)) / 1000
}

// Fig. 8: thread scheduling alone leaves socket-level HOL blocking;
// request scheduling alone dies when CFS won't preempt SCAN threads; the
// combination sustains well past both.
func TestShapeFig8CrossLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("long shape test")
	}
	// Thread scheduling only: high GET tails even at very low load
	// (paper: >800us at near-zero load).
	if p99 := getP99(fig8Point(PolicyVanilla, true, 2_000)); p99 < 300 {
		t.Fatalf("thread-sched-only GET p99 at 2K = %.0fus, want high (socket HOL)", p99)
	}
	// SCAN Avoid only: fine at low load...
	if low := getP99(fig8Point(PolicyScanAvoid, false, 3_000)); low > 200 {
		t.Fatalf("scan-avoid-only GET p99 at 3K = %.0fus", low)
	}
	// ...but degraded at 10K where CFS leaves GETs behind SCANs.
	saGet := getP99(fig8Point(PolicyScanAvoid, false, 10_000))
	// Combined: still fast at 10K (paper: sub-500us at 8K, 60% beyond
	// single-layer).
	combGet := getP99(fig8Point(PolicyScanAvoid, true, 10_000))
	if combGet > 500 {
		t.Fatalf("combined GET p99 at 10K = %.0fus, want <500", combGet)
	}
	if saGet < 2*combGet {
		t.Fatalf("scan-avoid-only (%.0fus) should be well above combined (%.0fus) at 10K", saGet, combGet)
	}
}

func micaP999(t *testing.T, mode mica.Mode, load float64) float64 {
	t.Helper()
	r, _ := runMicaPoint(micaPoint{Seed: 53, Load: load, Mode: mode, GetFrac: 0.5, Run: RunConfig{Windows: FastWindows}})
	return float64(r.All.Latency.Percentile(99.9)) / 1000
}

// Fig. 9: steering earlier in the stack wins — app redirect < kernel XDP <
// NIC offload, with the paper's knee ordering.
func TestShapeFig9LayerOrdering(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long shape test")
	}
	// At 2.1M RPS: the app-redirect baseline has already collapsed
	// (paper knee 1.7-1.8M); both Syrup variants are healthy.
	redirect := micaP999(t, mica.ModeSWRedirect, 2_100_000)
	sw := micaP999(t, mica.ModeSyrupSW, 2_100_000)
	hw := micaP999(t, mica.ModeSyrupHW, 2_100_000)
	if redirect < 1000 {
		t.Fatalf("SW-redirect p999 at 2.1M = %.0fus, should have collapsed", redirect)
	}
	if sw > 300 {
		t.Fatalf("Syrup SW p999 at 2.1M = %.0fus, want healthy", sw)
	}
	if hw > 150 || hw > sw {
		t.Fatalf("Syrup HW p999 at 2.1M = %.0fus (SW %.0fus), want best", hw, sw)
	}
	// At 3.0M: kernel steering has collapsed (knee ~2.8M) while NIC
	// steering is still standing (knee ~3.3M).
	sw3 := micaP999(t, mica.ModeSyrupSW, 3_000_000)
	hw3 := micaP999(t, mica.ModeSyrupHW, 3_000_000)
	if sw3 < 1000 {
		t.Fatalf("Syrup SW p999 at 3.0M = %.0fus, should have collapsed", sw3)
	}
	if hw3 > 500 {
		t.Fatalf("Syrup HW p999 at 3.0M = %.0fus, want standing", hw3)
	}
}

// Table 2: every policy is compact in bytecode and fast in its compiled
// form, and the header names the columns for what they measure.
func TestShapeTable2(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LoC == 0 || r.LoC > 60 {
			t.Errorf("%s LoC = %d", r.Policy, r.LoC)
		}
		if r.Instructions == 0 || r.Instructions > 120 {
			t.Errorf("%s instructions = %d", r.Policy, r.Instructions)
		}
		// Nothing rewrites a policy after assembly: the table's count is
		// the assembled stream's.
		f, err := ebpf.Assemble(policy.MustSource(r.Policy), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Instructions != len(f.Insns) {
			t.Errorf("%s instructions = %d, assembled stream has %d", r.Policy, r.Instructions, len(f.Insns))
		}
		if r.MeanExecInsns <= 0 || r.MeanExecInsns > float64(r.Instructions)*8 {
			t.Errorf("%s exec insns = %.1f", r.Policy, r.MeanExecInsns)
		}
		if r.WallNanos <= 0 || r.WallNanos > 20_000 {
			t.Errorf("%s run cost = %.0fns", r.Policy, r.WallNanos)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, " Insns ") || !strings.Contains(out, " ns/run") ||
		strings.Contains(out, "Interp") || strings.Contains(out, "-O0") {
		t.Fatalf("table 2 header mislabels its columns:\n%s", out)
	}
}

// Table 3: host map ops are memory-speed; offloaded ops pay the ~25us PCIe
// round trip.
func TestShapeTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Backend] = r
	}
	host := byName["Host"]
	off := byName["Offload"]
	if host.GetNanos <= 0 || host.GetNanos > 5_000 {
		t.Fatalf("host get = %.0fns", host.GetNanos)
	}
	if off.GetNanos != 25_000 || off.UpdNanos != 25_000 {
		t.Fatalf("offload latency = %.0f/%.0f, want 25000", off.GetNanos, off.UpdNanos)
	}
	if off.GetNanos < 10*host.GetNanos {
		t.Fatal("offload should be at least an order of magnitude slower than host")
	}
	if FormatTable3(rows) == "" {
		t.Fatal("empty format")
	}
}

// Result plumbing.
func TestResultFormatAndCol(t *testing.T) {
	r := &Result{
		Name: "x", Title: "t", XLabel: "load",
		Columns: []string{"a"},
		Series:  []Series{{Name: "s", Rows: []Row{{X: 1, Cols: map[string]float64{"a": 2}}}}},
		Notes:   []string{"n"},
	}
	if got := r.Col("s", 1, "a"); got != 2 {
		t.Fatalf("Col = %v", got)
	}
	out := r.Format()
	for _, want := range []string{"== x", "-- s --", "notes:"} {
		if !containsStr(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	func() {
		defer func() { recover() }()
		r.Col("nope", 1, "a")
		t.Fatal("missing series did not panic")
	}()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSweepPreservesOrderAndParallelizes(t *testing.T) {
	loads := []float64{3, 1, 2}
	for _, workers := range []int{1, 4} {
		rows := sweep(RunConfig{Workers: workers}, loads, func(load float64) Row {
			return Row{X: load, Cols: map[string]float64{"v": load * 10}}
		})
		if rows[0].X != 1 || rows[1].X != 2 || rows[2].X != 3 {
			t.Fatalf("workers=%d: rows unsorted: %+v", workers, rows)
		}
	}
}

// TestWorkersReachTheSweep: a Workers value on a figure config sets the
// width of that figure's sweep. A config whose Workers never reached the
// pool would pass every digest gate (results are width-independent) and
// fail here. Each Fig7 series sweeps four points. At Workers: 1 the pool
// runs them inline and never waits for its workers. At Workers: 4 it waits
// for its workers, so the points ran on goroutines, and it admits all four
// at once and never waits for a free slot, as it would at any width from 2
// to 3: together, a pool at least 4 wide. The block profile records every
// wait of the pool, so the verdict does not hang on when a sampler gets to
// run. Not parallel: it sets the block profile rate.
func TestWorkersReachTheSweep(t *testing.T) {
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)
	var prof bytes.Buffer
	// waits counts the waits so far in call, made by par.Do itself.
	waits := func(call string) int {
		prof.Reset()
		pprof.Lookup("block").WriteTo(&prof, 1)
		in := regexp.MustCompile(`\t` + regexp.QuoteMeta(call) + `\+.*\n#\t\S+\tsyrup/internal/par\.Do\+`)
		n := 0
		for _, rec := range strings.Split(prof.String(), "\n\n") {
			if in.MatchString(rec) {
				head, _, _ := strings.Cut(rec, " @ ")
				c, _ := strconv.Atoi(head[strings.LastIndex(head, " ")+1:]) // "cycles count"
				n += c
			}
		}
		return n
	}
	// during returns the waits for the workers and for a free slot that a
	// Fig7 run at this width made.
	during := func(workers int) (join, slot int) {
		join0, slot0 := waits("sync.(*WaitGroup).Wait"), waits("runtime.chansend1")
		Fig7(Fig7Config{
			LSLoads: loadsBetween(50_000, 350_000, 4), TotalLoad: 400_000, TokenRate: 350_000,
			Run: RunConfig{Windows: tinyWindows, Workers: workers},
		})
		return waits("sync.(*WaitGroup).Wait") - join0, waits("runtime.chansend1") - slot0
	}
	if join, _ := during(1); join != 0 {
		t.Fatalf("Workers: 1 waited %d times for pool workers, want the sweep inline", join)
	}
	join, slot := during(4)
	if join == 0 {
		t.Fatal("Workers: 4 never waited for pool workers: the sweep ran inline")
	}
	if slot != 0 {
		t.Fatalf("Workers: 4 waited %d times for a free slot among four points: a pool narrower than 4", slot)
	}
}

func TestLoadsBetween(t *testing.T) {
	ls := loadsBetween(0, 100, 5)
	if len(ls) != 5 || ls[0] != 0 || ls[4] != 100 || ls[2] != 50 {
		t.Fatalf("loads = %v", ls)
	}
	if got := loadsBetween(0, 9, 1); len(got) != 1 || got[0] != 9 {
		t.Fatalf("degenerate = %v", got)
	}
}

func TestMeanStdev(t *testing.T) {
	m, s := meanStdev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Fatalf("mean=%v stdev=%v", m, s)
	}
	if m, s := meanStdev(nil); m != 0 || s != 0 {
		t.Fatal("empty sample")
	}
}

// seriesRow finds the row at x in a series.
func (r *Result) seriesRow(series string, x float64) (Row, bool) {
	for _, s := range r.Series {
		if s.Name != series {
			continue
		}
		for _, row := range s.Rows {
			if row.X == x {
				return row, true
			}
		}
	}
	return Row{}, false
}

// Col fetches a column value from a series at x; tests use it for shape
// assertions.
func (r *Result) Col(series string, x float64, col string) float64 {
	row, ok := r.seriesRow(series, x)
	if !ok {
		panic(fmt.Sprintf("experiments: %s has no row %s@%v", r.Name, series, x))
	}
	v, ok := row.Cols[col]
	if !ok {
		panic(fmt.Sprintf("experiments: %s %s@%v has no column %q", r.Name, series, x, col))
	}
	return v
}
