package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"syrup/internal/policy"
	"syrup/internal/trace"
	"syrup/internal/workload"
)

// testTraceConfig is a fast traced point well below the saturation knee.
func testTraceConfig() TraceConfig {
	return TraceConfig{Seed: 1, Load: 150_000, Policy: PolicyRoundRobin, Run: RunConfig{Windows: FastWindows}}
}

func TestBreakdownReconcilesWithE2E(t *testing.T) {
	tr := RunTraced(testTraceConfig())

	// Every datapath stage saw every request (histograms are ring-proof).
	completed := tr.Result.All.Completed
	if completed == 0 {
		t.Fatal("no completions")
	}
	for _, st := range trace.Stages {
		if c := tr.Recorder.StageHistogram(st).Summarize().Count; c < completed {
			t.Fatalf("stage %v saw %d spans, < %d completions", st, c, completed)
		}
	}

	// The disjoint stages plus two wire crossings partition the client-
	// observed latency exactly; the only slack is histogram bucketing and
	// the warmup/drain requests the client histogram excludes.
	sum := tr.StageSumMean()
	e2e := tr.Result.All.Latency.Summarize().Mean
	if rel := math.Abs(sum-e2e) / e2e; rel > 0.05 {
		t.Fatalf("stage-sum mean %.0fns vs e2e mean %.0fns: off by %.1f%%", sum, e2e, 100*rel)
	}

	out := tr.FormatBreakdown()
	for _, want := range []string{"nic", "softirq", "proto", "socket", "oncpu", "runqueue", "reconciliation"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("breakdown table missing %q:\n%s", want, out)
		}
	}
}

// TestTracingDoesNotPerturbResults is the golden-figure gate: the same
// point run with and without the tracer must agree bit-for-bit, because the
// recorder never schedules events or consumes randomness.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	pt := rocksPoint{
		Seed:       7,
		Load:       200_000,
		NumThreads: 6,
		PinToCores: true,
		Flows:      50,
		Classes: []workload.Class{
			{Name: "GET", Weight: 99.5, Type: policy.ReqGET},
			{Name: "SCAN", Weight: 0.5, Type: policy.ReqSCAN},
		},
		Policy: PolicyScanAvoid,
		Run:    RunConfig{Windows: FastWindows},
	}
	plain := runRocksPoint(pt).Result
	pt.Run.Tracer = trace.New(1024) // small ring: overwrites must not matter either
	traced := runRocksPoint(pt).Result

	for _, cmp := range []struct {
		name          string
		plain, traced *metricsSnapshot
	}{
		{"all", snap(plain, ""), snap(traced, "")},
		{"GET", snap(plain, "GET"), snap(traced, "GET")},
		{"SCAN", snap(plain, "SCAN"), snap(traced, "SCAN")},
	} {
		if *cmp.plain != *cmp.traced {
			t.Fatalf("%s diverged with tracing on:\nplain:  %+v\ntraced: %+v", cmp.name, cmp.plain, cmp.traced)
		}
	}
}

// metricsSnapshot is a comparable digest of one RunStats.
type metricsSnapshot struct {
	Offered, Completed, Drops uint64
	Mean                      float64
	P50, P99, P999, Max       int64
}

func snap(r *workload.Result, class string) *metricsSnapshot {
	st := r.All
	if class != "" {
		st = r.PerClass[class]
	}
	s := st.Latency.Summarize()
	return &metricsSnapshot{
		Offered: st.Offered, Completed: st.Completed, Drops: st.TotalDrops(),
		Mean: s.Mean, P50: s.P50, P99: s.P99, P999: s.P999, Max: s.Max,
	}
}

func TestTracedRunExportsValidChromeTrace(t *testing.T) {
	t.Parallel()
	tr := RunTraced(testTraceConfig())
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	cats := map[string]bool{}
	phases := map[string]int{}
	for _, ev := range file.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "X" {
			cats[ev.Cat] = true
		}
	}
	for _, want := range []string{"nic", "netstack", "socket", "runqueue", "oncpu"} {
		if !cats[want] {
			t.Fatalf("category %q missing; have %v", want, cats)
		}
	}
	// Per-request flow events stitch the lifecycle across CPU tracks.
	if phases["s"] == 0 || phases["t"] == 0 || phases["f"] == 0 {
		t.Fatalf("flow events missing: %v", phases)
	}
	// The hook instants (verdict markers) ride along.
	if phases["i"] == 0 {
		t.Fatalf("instant events missing: %v", phases)
	}
	if phases["M"] == 0 {
		t.Fatalf("thread-name metadata missing: %v", phases)
	}
}

// TestScanMixRejectsOutOfRange: -scan-pct is outside input at both CLIs;
// anything but a percentage is refused with the flag named, instead of
// normalising {GET: -50, SCAN: 150} into a run that is silently all SCANs.
func TestScanMixRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		pct     float64
		classes int // 0 = rejected
	}{
		{0, 1}, {0.5, 2}, {100, 2},
		{-0.001, 0}, {100.001, 0}, {150, 0}, {math.NaN(), 0}, {math.Inf(1), 0},
	} {
		classes, err := ScanMix(c.pct)
		if (err == nil) != (c.classes > 0) || len(classes) != c.classes {
			t.Errorf("ScanMix(%v) = %d classes, err %v; want %d classes", c.pct, len(classes), err, c.classes)
		}
		if err != nil && !strings.Contains(err.Error(), "-scan-pct") {
			t.Errorf("ScanMix(%v): %q does not name the flag", c.pct, err)
		}
	}
}
