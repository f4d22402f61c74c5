// Command benchmark is the repo's performance ledger: four fixed workloads
// built from the simulator's public APIs, nine end-to-end metrics and the
// per-layer metrics behind them, measured so that two runs of the same
// code agree (see README.md for the protocol and why each piece is there).
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//	benchmark agree -sets 2 -runs N
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is the same
// information for people. It exits non-zero when an output is wrong.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type metric struct {
	name  string
	unit  string
	value float64
}

// report is one run's result.
type report struct {
	sp        *spec
	seed      uint64
	passes    int
	traced    bool
	attempted uint64
	failed    uint64
	digest    string
	metrics   []metric
	notes     []string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(specNames(), ", "))
		seed    = flag.Uint64("seed", 7, "workload seed; the same seed gives the same simulated inputs")
		seconds = flag.Int("seconds", runSeconds, "run length the pass count is scaled to")
		traced  = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	)
	flag.Parse()
	sp := findSpec(*name)
	if sp == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n", strings.Join(specNames(), "|"))
		os.Exit(2)
	}
	// Every world is single-threaded and the fleet runs one worker; one P
	// keeps the Go scheduler and the GC's background workers from spreading
	// the run over a second, differently loaded CPU.
	runtime.GOMAXPROCS(1)

	rep, err := runWorkload(sp, *seed, plan{win: sp.win, passes: passesFor(sp, *seconds), traced: *traced != 0, probeReps: 5, probeOps: 1 << 18})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", sp.name, *seed, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

func specNames() []string {
	var out []string
	for _, sp := range specs {
		out = append(out, sp.name)
	}
	return out
}

// traceDir is where traced runs leave their span files: the build
// directory the driver already ignores, inside the checkout.
const traceDir = ".bench_build"

// plan is how much of a workload one run does; only tests shrink it.
type plan struct {
	win    windows
	passes int
	traced bool
	// probeReps is how often each isolation probe is repeated and probeOps
	// the operation count of the cheapest ones.
	probeReps, probeOps int
}

// runWorkload measures one workload. Untraced, it is k passes and the nine
// end-to-end metrics. Traced, the last two pass slots go to one pass with
// the recorder and the benchmark's own spans on and to the isolation
// probes, and the per-layer metrics come out instead.
func runWorkload(sp *spec, seed uint64, pl plan) (*report, error) {
	// The simulator reads seed 0 as seed 1; shift so no two seeds alias.
	worldSeed := seed + 1
	k, win, traced := pl.passes, pl.win, pl.traced
	if traced && k > 4 {
		k -= 2
	}
	m, err := measure(sp, worldSeed, win, k)
	if err != nil {
		return nil, err
	}
	w := m.last.w
	rep := &report{sp: sp, seed: seed, passes: k, traced: traced, digest: m.last.digest}
	rep.notes = m.log
	rep.attempted = w.result().All.Offered
	if rep.failed, err = verify(w); err != nil {
		return nil, err
	}
	if !traced {
		rep.metrics = endToEnd(m)
		return rep, nil
	}
	tr := newTracer()
	rep.metrics, err = perLayer(sp, worldSeed, pl, m, tr)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("spans-%s-%d.json", sp.name, seed))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return rep, nil
}

// endToEnd derives the nine end-to-end metrics from the untraced passes.
func endToEnd(m *measured) []metric {
	w := m.last.w
	all := w.result().All
	req := float64(all.Offered)
	secs := float64(w.win.Measure) / 1e9
	return []metric{
		{"sim_p50_us", "us", percentile(all.Latency, 50) / 1e3},
		{"sim_p99_us", "us", percentile(all.Latency, 99) / 1e3},
		{"sim_goodput_rps", "1/s", float64(all.DeadlineHits) / secs},
		{"sim_slo_met_pct", "%", 100 * float64(all.DeadlineHits) / req},
		{"sim_req_per_cpu_s", "req/cpu-s", req / m.runCPU},
		{"allocs_per_req", "1/req", float64(m.last.mallocs) / req},
		{"alloc_bytes_per_req", "B/req", float64(m.last.bytes) / req},
		{"live_heap_mb", "MiB", float64(m.liveHeap) / (1 << 20)},
		{"setup_s", "s", m.setupCPU},
	}
}

func (r *report) print(out *os.File) {
	w := r.sp.win
	fmt.Fprintf(out, "workload   %s (seed %d, k = %d passes, pass 0 discarded, traced = %v)\n", r.sp.name, r.seed, r.passes, r.traced)
	fmt.Fprintf(out, "why        %s\n", r.sp.why)
	fmt.Fprintf(out, "windows    warm-up %v, measure %v, drain %v of simulated time; latency limit %v; batch %d\n", w.Warmup, w.Measure, w.Drain, r.sp.limit, r.sp.batch)
	fmt.Fprintf(out, "load       open-loop Poisson in simulated time: generator_lateness = 0 by construction, latency counts from the simulated send instant\n")
	fmt.Fprintf(out, "machine    %s\n", machineShape())
	fmt.Fprintf(out, "model      unvalidated beyond the repo's tier-1 shape tests: no reference results exist, so no error figure is given\n")
	fmt.Fprintf(out, "requests   %d offered in the measure window, %d lost by the simulator (simulated drops are model output and count against sim_slo_met_pct)\n", r.attempted, r.failed)
	fmt.Fprintf(out, "digest     %x\n", sha256.Sum256([]byte(r.digest)))
	for _, line := range strings.Split(strings.TrimSpace(r.digest), "\n") {
		fmt.Fprintf(out, "           %s\n", line)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "note       %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-34s %18.6f %s\n", m.name, m.value, m.unit)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", b)
}

// machineShape records what the host-time numbers were taken on, so
// numbers from different containers are never compared silently.
func machineShape() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s %s/%s, cpu %q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}
