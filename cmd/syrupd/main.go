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
	"syrup/internal/ebpf"
	"syrup/internal/metrics"
	"syrup/internal/nic"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
	"syrup/internal/workload"
)

func main() {
	socket := flag.String("socket", "/tmp/syrupd.sock", "control socket path")
	threads := flag.Int("threads", 6, "demo RocksDB server threads (= cores)")
	rps := flag.Float64("rps", 250_000, "background offered load")
	scanPct := flag.Float64("scan-pct", 0.5, "percent of requests that are SCANs")
	speed := flag.Float64("speed", 1.0, "virtual seconds simulated per wall second")
	traceCap := flag.Int("trace", 0, "enable request tracing with a span ring of this capacity (0 = off); query via the trace op")
	obsPeriodUS := flag.Int("obs-period-us", 1000, "telemetry sampling period in virtual microseconds (0 = no sampler); query via the timeseries and metrics ops")
	profile := flag.Bool("profile", false, "deploy policies with per-instruction profiling; query via the profile op")
	flag.Parse()

	var tracer *syrup.TraceRecorder
	if *traceCap > 0 {
		tracer = syrup.NewTraceRecorder(*traceCap)
	}
	var telemetry *obs.Config
	if *obsPeriodUS > 0 {
		telemetry = &obs.Config{Period: sim.Time(*obsPeriodUS) * sim.Microsecond, Counters: true}
	}
	host, app := syrup.MustHostApp(syrup.HostConfig{
		Seed: 1, NumCPUs: *threads, NICQueues: *threads, Trace: tracer,
		Telemetry: telemetry, PolicyProfile: *profile,
	}, 1, 1000, 9000)

	// Rolling metrics for the stats op. Registering the latency histogram
	// on the host's sampler traces its percentiles and lets the stats and
	// metrics ops derive request_latency_{count,p50_us,p99_us,p999_us}.
	lat := metrics.NewHistogram()
	var completed, offered uint64
	sent := map[uint64]sim.Time{}
	if host.Obs != nil {
		host.Obs.Rate("rps", func() float64 { return float64(completed) })
		host.Obs.Gauge("inflight", func() float64 { return float64(len(sent)) })
		host.Obs.Rate("drop_rate", func() float64 {
			return float64(host.Stack.Stats.TotalDrops() + host.NIC.Stats.DroppedRing + host.NIC.Stats.DroppedByXDP)
		})
		host.Obs.Histogram("request_latency", lat)
	}

	scanState, err := app.CreateMap(ebpf.MapSpec{
		Name: "scan_state", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := rocksdb.NewServer(host.Eng, host.Machine, host.Stack, rocksdb.Config{
		Port: 9000, App: 1, NumThreads: *threads, PinToCores: true,
		ScanState: scanState.Raw(),
		Tracer:    tracer,
		OnComplete: func(reqID uint64, finish sim.Time) {
			if at, ok := sent[reqID]; ok {
				lat.Record(int64(finish + 5*sim.Microsecond - at))
				delete(sent, reqID)
				completed++
			}
		},
	})

	// Background open-loop load, regenerated every virtual second so the
	// daemon can run forever.
	classes := []workload.Class{
		{Name: "GET", Weight: 1 - *scanPct/100, Type: policy.ReqGET},
		{Name: "SCAN", Weight: *scanPct / 100, Type: policy.ReqSCAN},
	}
	var pump func()
	reqID := uint64(0)
	pump = func() {
		// One virtual second of Poisson arrivals at a time.
		gap := func() sim.Time {
			g := sim.Time(host.Eng.Rand().ExpFloat64() / *rps * 1e9)
			if g < 1 {
				g = 1
			}
			return g
		}
		var arrive func()
		deadline := host.Eng.Now() + sim.Second
		arrive = func() {
			if host.Eng.Now() >= deadline {
				pump()
				return
			}
			id := reqID
			reqID++
			offered++
			cls := classes[0]
			if host.Eng.Rand().Float64() < classes[1].Weight {
				cls = classes[1]
			}
			sent[id] = host.Eng.Now()
			pkt := workloadPacket(host, id, cls)
			host.Eng.After(5*sim.Microsecond, func() { host.NIC.Receive(pkt) })
			host.Eng.After(gap(), arrive)
		}
		host.Eng.After(gap(), arrive)
	}
	pump()
	srv.Start()

	server := syrupd.NewServer(host.Daemon)
	server.StatsFunc = func() map[string]float64 {
		return map[string]float64{
			"virtual_seconds": float64(host.Now()) / 1e9,
			"offered":         float64(offered),
			"completed":       float64(completed),
			"inflight":        float64(len(sent)),
			"p50_us":          float64(lat.Percentile(50)) / 1000,
			"p99_us":          float64(lat.Percentile(99)) / 1000,
			"p999_us":         float64(lat.Percentile(99.9)) / 1000,
		}
	}
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

func workloadPacket(host *syrup.Host, id uint64, cls workload.Class) *nic.Packet {
	keyHash := uint32(id * 2654435761)
	payload := policy.EncodeHeader(cls.Type, cls.UserID, keyHash, id)
	return &nic.Packet{
		ID: id, SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: uint16(1024 + id%997), DstPort: 9000,
		Payload: payload, SentAt: host.Now(),
	}
}
