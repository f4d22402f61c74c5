// Command syrupd runs the Syrup daemon on a live simulated host with a
// demo RocksDB application and background load, serving the control
// protocol over a Unix socket. Policies can be deployed, swapped, and
// inspected while traffic flows — the paper's "applications can update or
// deploy new policies at any time" workflow (§3.1).
//
//	syrupd -socket /tmp/syrupd.sock -threads 6 -rps 250000 -scan-pct 0.5
//
// Talk to it with netcat-style JSON lines, e.g.:
//
//	{"op":"register_app","app":2,"uid":1002,"ports":[9001]}
//	{"op":"deploy","app":1,"hook":"socket_select","policy":"sita","defines":{"NUM_THREADS":6,"NT_MINUS_1":5}}
//	{"op":"stats"}
//	{"op":"map_lookup","path":"/syrup/1/rr_state","uid":1000,"key":0}
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"syrup"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/experiments"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
	"syrup/internal/workload"
)

// forever is the demo generator's measure window: as long as the request
// table's 54-bit send time allows (2^53 ns is about 104 days of virtual
// time), so the arrival process never ends while the daemon runs.
const forever = sim.Time(1) << 53

// demo is the daemon's live world: the experiments' RocksDB wiring on one
// host, offered an open-loop GET/SCAN load for as long as the daemon runs.
type demo struct {
	*experiments.RocksWorld
}

// newDemo builds the host, wires the demo app (app 1, uid 1000, port 9000)
// and starts server and load. classes is the GET/SCAN mix.
func newDemo(cfg syrup.HostConfig, threads int, rps float64, classes []workload.Class) *demo {
	cfg.Seed, cfg.NumCPUs, cfg.NICQueues = 1, threads, threads
	host, app := syrup.MustHostApp(cfg, 1, 1000, 9000)
	d := &demo{experiments.WireRocksDB(host, app,
		workload.Config{Rate: rps, Classes: classes, Measure: forever},
		rocksdb.Config{NumThreads: threads, PinToCores: true, Tracer: cfg.Trace})}
	if host.Obs != nil {
		host.Obs.Gauge("inflight", func() float64 { return float64(d.inflight()) })
	}
	d.Srv.Start()
	d.Gen.Start()
	return d
}

// dropped counts the requests the host refused: NIC ring overflow, XDP
// drop verdicts, and every stack-side cause (backlog, socket queue, a
// policy's DROP at socket select).
func (d *demo) dropped() uint64 {
	return d.Host.Stack.Stats.TotalDrops() + d.Host.NIC.Stats.DroppedRing + d.Host.NIC.Stats.DroppedByXDP
}

// inflight is what the host holds right now — received, not dropped, not
// yet served — so it is bounded by the rings, queues and threads it can
// sit in however long the daemon has been overloaded.
func (d *demo) inflight() uint64 {
	return d.Host.NIC.Stats.Received - d.dropped() - d.Srv.ProcessedGET - d.Srv.ProcessedSCAN
}

// stats is the host-key part of the stats op. Offered, completed and the
// latency percentiles are the generator's live per-class stats, merged;
// they cover requests sent after the generator's 200 ms warmup.
func (d *demo) stats() map[string]float64 {
	all := metrics.NewRunStats()
	for _, st := range d.Gen.LiveStats() {
		all.Merge(st)
	}
	return map[string]float64{
		"virtual_seconds": float64(d.Host.Now()) / 1e9,
		"offered":         float64(all.Offered),
		"completed":       float64(all.Completed),
		"inflight":        float64(d.inflight()),
		"p50_us":          float64(all.Latency.Percentile(50)) / 1000,
		"p99_us":          float64(all.Latency.Percentile(99)) / 1000,
		"p999_us":         float64(all.Latency.Percentile(99.9)) / 1000,
	}
}

func main() {
	socket := flag.String("socket", "/tmp/syrupd.sock", "control socket path")
	threads := flag.Int("threads", 6, "demo RocksDB server threads (= cores)")
	rps := flag.Float64("rps", 250_000, "background offered load")
	scanPct := flag.Float64("scan-pct", 0.5, "percent of requests that are SCANs")
	speed := flag.Float64("speed", 1.0, "virtual seconds simulated per wall second")
	traceCap := flag.Int("trace", 0, "enable request tracing with a span ring of this capacity (0 = off); query via the trace op")
	samplePeriodUS := flag.Int("obs-period-us", 1000, "telemetry sampling period in virtual microseconds (0 = no sampler); query via the timeseries and metrics ops")
	profile := flag.Bool("profile", false, "deploy policies with per-instruction profiling; query via the profile op")
	flag.Parse()

	classes, err := experiments.ScanMix(*scanPct)
	if err != nil {
		log.Fatalf("syrupd: %v", err)
	}
	cfg := syrup.HostConfig{PolicyProfile: *profile}
	if *traceCap > 0 {
		cfg.Trace = syrup.NewTraceRecorder(*traceCap)
	}
	if *samplePeriodUS > 0 {
		cfg.Telemetry = &obs.Config{Period: sim.Time(*samplePeriodUS) * sim.Microsecond, Counters: true}
	}
	d := newDemo(cfg, *threads, *rps, classes)
	host := d.Host

	server := syrupd.NewServer(host.Daemon)
	server.StatsFunc = d.stats
	os.Remove(*socket)
	if err := server.ListenUnix(*socket); err != nil {
		log.Fatal(err)
	}
	defer server.Close()
	defer os.Remove(*socket)
	log.Printf("syrupd: listening on %s; demo rocksdb app=1 uid=1000 port=9000 (%d threads, %.0f rps, %.1f%% scans)",
		*socket, *threads, *rps, *scanPct)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	// Simulation loop: advance virtual time in 10ms slices, paced to the
	// requested speed, interleaving with protocol handling via the big
	// lock.
	const slice = 10 * sim.Millisecond
	wallSlice := time.Duration(float64(slice) / *speed)
	ticker := time.NewTicker(wallSlice)
	defer ticker.Stop()
	for {
		select {
		case <-sigc:
			log.Printf("syrupd: shutting down at virtual %v", host.Now())
			server.Lock()
			for _, c := range host.Daemon.Counters() {
				log.Printf("syrupd: counter %s=%d", c.Name, c.Value)
			}
			server.Unlock()
			return
		case <-ticker.C:
			server.Lock()
			host.RunFor(slice)
			server.Unlock()
		}
	}
}
