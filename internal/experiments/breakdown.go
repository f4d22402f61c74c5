package experiments

import (
	"fmt"
	"io"
	"strings"

	"syrup/internal/metrics"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/trace"
	"syrup/internal/workload"
)

// wireDelay mirrors workload.Config's default one-way client↔server
// latency; the harness never overrides it. A request's client-observed
// latency is the in-host lifecycle plus one wire each way.
const wireDelay = 5 * sim.Microsecond

// TraceConfig parameterizes a single traced RocksDB run: the `-breakdown`
// and `-trace` modes of syrup-bench.
type TraceConfig struct {
	Seed    uint64
	Load    float64 // offered RPS
	ScanPct float64 // percent of requests that are SCANs (0 = pure GET)
	Policy  SocketPolicy
	// Run.Tracer, when nil, is a recorder of the default ring capacity.
	// Stage histograms see every span regardless; the ring only bounds
	// what the Chrome export can show.
	Run RunConfig
}

// DefaultTrace is the quickstart traced point: a moderate 150 K RPS pure-GET
// load on the Fig. 2 setup, well under the ≈450 K saturation knee so queues
// stay short and the breakdown is readable.
func DefaultTrace() TraceConfig {
	return TraceConfig{
		Seed:   1,
		Load:   150_000,
		Policy: PolicyRoundRobin,
		Run:    RunConfig{Windows: DefaultWindows},
	}
}

// TraceRun is one traced run: the client-observed result plus the recorder
// holding the per-stage histograms and the span ring.
type TraceRun struct {
	Recorder *trace.Recorder
	Result   *workload.Result
}

// ScanMix is the GET/SCAN class mix of a -scan-pct flag (the SCAN class
// only when it has a share); a percentage outside [0, 100] is an error
// naming the flag.
func ScanMix(scanPct float64) ([]workload.Class, error) {
	if !(scanPct >= 0 && scanPct <= 100) {
		return nil, fmt.Errorf("-scan-pct %v is outside [0, 100]", scanPct)
	}
	classes := []workload.Class{{Name: "GET", Weight: 100 - scanPct, Type: policy.ReqGET}}
	if scanPct > 0 {
		classes = append(classes, workload.Class{Name: "SCAN", Weight: scanPct, Type: policy.ReqSCAN})
	}
	return classes, nil
}

// scanPoint is the point -breakdown, -trace and -faults run: the Fig. 2
// host (6 cores, 6 pinned threads, 50 flows) under a GET/SCAN mix, with
// the flags' defaults filled in.
func scanPoint(seed uint64, load, scanPct float64, pol SocketPolicy, run RunConfig) rocksPoint {
	if seed == 0 {
		seed = 1
	}
	if load == 0 {
		load = DefaultTrace().Load
	}
	if pol == "" {
		pol = PolicyRoundRobin
	}
	classes, err := ScanMix(scanPct)
	if err != nil {
		panic(err) // the CLIs reject the flag before building a config
	}
	return rocksPoint{
		Seed: seed, Load: load, NumThreads: 6, PinToCores: true,
		Flows: 50, Classes: classes, Policy: pol, Run: run,
	}
}

// RunTraced executes one RocksDB point with the cross-stack tracer wired
// through every layer. The tracer never schedules events or consumes
// randomness, so Result is bit-identical to the same point run untraced.
func RunTraced(cfg TraceConfig) *TraceRun {
	if cfg.Run.Tracer == nil {
		cfg.Run.Tracer = trace.New(0)
	}
	run := runRocksPoint(scanPoint(cfg.Seed, cfg.Load, cfg.ScanPct, cfg.Policy, cfg.Run))
	return &TraceRun{Recorder: cfg.Run.Tracer, Result: run.Result}
}

// WriteChrome renders the run's span ring as Chrome trace_event JSON
// (chrome://tracing, Perfetto).
func (tr *TraceRun) WriteChrome(w io.Writer) error {
	return trace.WriteChrome(w, tr.Recorder.Spans())
}

// StageSumMean adds up the per-stage mean latencies across the disjoint
// datapath stages (trace.Stages) plus both wire crossings: the trace-side
// estimate of mean end-to-end latency. The runqueue stage is excluded — it
// nests inside the socket wait.
func (tr *TraceRun) StageSumMean() float64 {
	sum := 2 * float64(wireDelay)
	for _, st := range trace.Stages {
		sum += tr.Recorder.StageHistogram(st).Summarize().Mean
	}
	return sum
}

// FormatBreakdown renders the per-stage latency decomposition table and the
// reconciliation against the client-observed end-to-end distribution.
//
// The stage rows partition a request's in-host lifetime: every request
// crosses nic → softirq → proto → socket → oncpu contiguously (runqueue,
// indented, overlaps the tail of the socket wait whenever the worker had
// blocked — it is accounting detail, not an addend). Stage histograms see
// every request; the client histogram sees only the measure window, so the
// reconciliation carries a small warmup/drain skew on top of bucketing
// error.
func (tr *TraceRun) FormatBreakdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== breakdown: per-stage request latency ==\n\n")
	fmt.Fprintf(&b, "%-12s%12s%12s%12s%12s%12s\n", "stage", "count", "mean_us", "p50_us", "p99_us", "p999_us")
	row := func(name string, h *metrics.Histogram) {
		s := h.Summarize()
		fmt.Fprintf(&b, "%-12s%12d%12.2f%12.2f%12.2f%12.2f\n",
			name, s.Count, s.Mean/1e3, float64(s.P50)/1e3, float64(s.P99)/1e3, float64(s.P999)/1e3)
	}
	for _, st := range trace.Stages {
		row(st.String(), tr.Recorder.StageHistogram(st))
	}
	row("  runqueue", tr.Recorder.StageHistogram(trace.StageRunqueue))
	fmt.Fprintf(&b, "%-12s%12s%12.2f\n", "wire x2", "-", 2*float64(wireDelay)/1e3)

	e2e := tr.Result.All.Latency.Summarize()
	sum := tr.StageSumMean()
	fmt.Fprintf(&b, "\nstage-sum mean  %10.2f us  (disjoint stages + 2x wire)\n", sum/1e3)
	fmt.Fprintf(&b, "client e2e mean %10.2f us  (measure window, %d reqs)\n", e2e.Mean/1e3, e2e.Count)
	if e2e.Mean > 0 {
		fmt.Fprintf(&b, "reconciliation  %+9.2f%%\n", 100*(sum-e2e.Mean)/e2e.Mean)
	}
	if d := tr.Recorder.Dropped(); d > 0 {
		fmt.Fprintf(&b, "\nring: %d of %d spans retained (%d overwritten; histograms saw all)\n",
			uint64(len(tr.Recorder.Spans())), tr.Recorder.Total(), d)
	}
	return b.String()
}
