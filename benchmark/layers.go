package main

import (
	"fmt"
	"runtime"
	"time"

	"syrup"
	"syrup/internal/adapt"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/ebpf"
	"syrup/internal/experiments"
	"syrup/internal/ghost"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/metrics"
	"syrup/internal/nic"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/trace"
	"syrup/internal/workload"
)

// Probe worlds are never run, so their windows only size tables.
var probeWindows = windows{Warmup: sim.Millisecond, Measure: sim.Millisecond, Drain: sim.Millisecond}

// cost is what one isolation probe measured: host ns per operation, and how
// many simulator events and hook runs one operation contains, so the
// budget can charge those to their own layers instead of twice.
type cost struct {
	ns     float64
	events float64
	hooks  float64
}

// prober runs isolation probes: reps is how many times each is repeated
// (the fastest is kept, as for the timed run they are set against), ops the
// operation count of the cheapest ones (the others are sized from it).
type prober struct {
	tr   *tracer
	reps int
	ops  int
}

// probe runs prep (untimed) then the function it returns (timed by the
// process CPU clock) reps times and keeps the fastest run. The
// timed function reports how many operations it performed and, when it
// drove an engine, which one, for the event count.
func (pr prober) probe(name string, prep func() (timed func() (ops int, eng *sim.Engine))) cost {
	tr := pr.tr
	s := tr.begin("probe." + name)
	defer tr.end(s)
	var c cost
	var ns []float64
	for i := 0; i < pr.reps; i++ {
		timed := prep()
		runtime.GC()
		r := tr.begin(name)
		c0 := cpuNow()
		ops, eng := timed()
		ns = append(ns, (cpuNow()-c0)*1e9/float64(ops))
		tr.end(r)
		if eng != nil {
			c.events = float64(eng.Fired()) / float64(ops) // the same every rep
		}
	}
	c.ns = minOf(ns)
	return c
}

// lcg is a tiny deterministic value source for probe inputs.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 11)
}

// capture runs the workload's own generator against a bare NIC that only
// acknowledges packets, keeping what it sent: the probes replay real
// request mixes, keys and flows. It is also the generator's probe.
func (pr prober) capture(cfg workload.Config, queues int, n int) ([]*nic.Packet, cost) {
	cfg.Warmup, cfg.Drain = sim.Microsecond, sim.Microsecond
	cfg.Measure = sim.Time(float64(n) / cfg.Rate * 1e9)
	cfg.RateFn = nil
	var pkts []*nic.Packet
	c := pr.probe("workload.send", func() func() (int, *sim.Engine) {
		eng := sim.New(1)
		var dev *nic.NIC
		pkts = make([]*nic.Packet, 0, n+n/4)
		dev = nic.New(eng, nic.Config{Queues: queues, RingSize: 1 << 20}, func(q int, p *nic.Packet) {
			dev.Consumed(q)
			pkts = append(pkts, p)
		})
		gen := workload.New(eng, dev, cfg)
		return func() (int, *sim.Engine) {
			gen.RunToCompletion()
			return len(pkts), eng
		}
	})
	return pkts, c
}

// drive feeds pkts to dev one mean arrival gap apart, letting the engine
// catch up between arrivals, the way the generator's wire events do.
func drive(eng *sim.Engine, dev *nic.NIC, pkts []*nic.Packet, gap sim.Time) {
	t := eng.Now()
	for _, p := range pkts {
		t += gap
		eng.RunUntil(t)
		dev.Receive(p)
	}
	eng.RunUntil(t + sim.Millisecond)
}

// layerProbes are the host-time costs of one workload's layers.
type layerProbes struct {
	fire, ebpfRun, hookRun, hookBatch     cost
	send, nicRx, datapath                 cost
	wake, ghostMsg                        cost
	get, scan                             cost
	histRecord, histAdvance, sample, tick cost
	load, deploy, swap, lookup            cost
}

// layers measures every layer in isolation with this workload's own
// policy, packets, batch setting and thread shape.
func (pr prober) layers(sp *spec, seed uint64) (*layerProbes, error) {
	lp, ops := &layerProbes{}, pr.ops
	fresh := func() (*world, error) {
		w, err := sp.datapath(sp, seed, probeWindows, nil, true)
		if err == nil && w.members[0].scanState != nil {
			// A server that has been running marks every thread GET between
			// requests and SCAN during one; at this load about one thread
			// is inside a SCAN. A never-run world reads all idle instead,
			// which sends scan_avoid round its whole retry loop.
			ss := w.members[0].scanState
			for i := range w.members[0].sockets {
				if err := ss.UpdateUint64(uint32(i), policy.ReqGET); err != nil {
					return nil, err
				}
			}
			if err := ss.UpdateUint64(0, policy.ReqSCAN); err != nil {
				return nil, err
			}
		}
		return w, err
	}
	pw, err := fresh()
	if err != nil {
		return nil, err
	}
	pm := pw.members[0]
	queues := pm.host.NIC.NumQueues()
	gap := sim.Time(1e9 / pm.cfg.Rate)

	// sim: self-rearming timers, as many in flight as a host keeps.
	lp.fire = pr.probe("sim.schedule_fire", func() func() (int, *sim.Engine) {
		eng := sim.New(seed)
		const chains = 64
		n := 4 * ops
		left := n
		var rnd lcg = 1
		var cb sim.Callback
		cb = func(any, uint64) {
			if left--; left >= chains {
				eng.CallAfter(sim.Time(1+rnd.next()%20_000), cb, nil, 0)
			}
		}
		return func() (int, *sim.Engine) {
			for i := 0; i < chains; i++ {
				eng.CallAfter(sim.Time(1+rnd.next()%20_000), cb, nil, 0)
			}
			eng.Run()
			return n, eng
		}
	})

	pkts, send := pr.capture(pm.cfg, queues, ops/8)
	lp.send = send

	// hook + ebpf: the deployed program at its own hook point, on the
	// captured packets.
	pt := pm.point
	ins := make([]hook.Input, len(pkts))
	for i, p := range pkts {
		ins[i] = hook.Input{Packet: p.Bytes(), Hash: p.RSSHash(), Port: uint32(p.DstPort), Queue: uint32(i % queues), Req: p.ID}
	}
	runs := ops
	lp.ebpfRun = pr.probe("ebpf.run", func() func() (int, *sim.Engine) {
		prog, env := pt.Program(), pt.Env()
		return func() (int, *sim.Engine) {
			var ctx ebpf.Ctx
			for i := 0; i < runs; i++ {
				in := &ins[i%len(ins)]
				ctx = ebpf.Ctx{Packet: in.Packet, Hash: in.Hash, Port: in.Port, Queue: in.Queue}
				if _, _, err := prog.Run(&ctx, env); err != nil {
					panic(err)
				}
			}
			return runs, nil
		}
	})
	lp.hookRun = pr.probe("hook.run", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			for i := 0; i < runs; i++ {
				pt.Run(ins[i%len(ins)])
			}
			return runs, nil
		}
	})
	lp.hookBatch = pr.probe("hook.run_batch", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			for i := 0; i+64 <= runs; i += 64 {
				o := i % (len(ins) - 64)
				pt.RunBatch(ins[o : o+64])
			}
			return runs, nil
		}
	})
	if f := pt.Stats().Faults; f != 0 {
		return nil, fmt.Errorf("probe: policy faulted %d times", f)
	}

	// nic: a bare device with this workload's queues and drain budget.
	lp.nicRx = pr.probe("nic.receive", func() func() (int, *sim.Engine) {
		eng := sim.New(seed)
		var dev *nic.NIC
		dev = nic.New(eng, nic.Config{Queues: queues, Budget: sp.batch}, func(q int, _ *nic.Packet) { dev.Consumed(q) })
		dev.SetBatchDeliver(func(q int, b []*nic.Packet) {
			for range b {
				dev.Consumed(q)
			}
		})
		return func() (int, *sim.Engine) {
			drive(eng, dev, pkts, gap)
			return len(pkts), eng
		}
	})

	// datapath: NIC -> softirq -> (XDP) -> protocol -> socket select ->
	// enqueue on an unstarted world, so nothing above the sockets runs.
	// Sockets are sized for the run's backlog, not the probe's: feed no
	// more than they hold.
	room := len(pkts)
	if half := len(pm.sockets) * pm.host.Stack.SocketQueueCap() / 2; half > 0 && half < room {
		room = half
	}
	var hookRuns uint64
	var fed int
	lp.datapath = pr.probe("datapath", func() func() (int, *sim.Engine) {
		w, err := fresh()
		if err != nil {
			panic(err)
		}
		m := w.members[0]
		return func() (int, *sim.Engine) {
			n := 0
			for n+room <= len(pkts) {
				drive(m.host.Eng, m.host.NIC, pkts[n:n+room], gap)
				n += room
				for _, s := range m.sockets {
					for s.TryRecv() != nil {
					}
				}
			}
			if d := m.host.Stack.Stats.TotalDrops() + m.host.NIC.Stats.DroppedRing; d != 0 {
				panic(fmt.Sprintf("probe: datapath dropped %d packets", d))
			}
			hookRuns = m.point.Stats().Runs
			fed = n
			return n, m.host.Eng
		}
	})
	lp.datapath.hooks = float64(hookRuns) / float64(fed)

	// kernel: wake -> CFS pick -> context switch -> run -> block, on this
	// workload's CPU count, thread count and pinning.
	threads := pm.threads
	cpus := pm.host.Machine.NumCPUs()
	wakes := ops / 2
	cycle := func(m *kernel.Machine, app uint32, register func(*kernel.Thread)) func() (int, *sim.Engine) {
		ths := make([]*kernel.Thread, threads)
		for i := range ths {
			var affinity uint64
			if threads == cpus {
				affinity = 1 << uint(i)
			}
			var loop func()
			ths[i] = m.NewThread(fmt.Sprintf("probe-%d", i), app, affinity, func(t *kernel.Thread) {
				loop = func() { t.Block(loop) }
				loop()
			})
			register(ths[i])
		}
		return func() (int, *sim.Engine) {
			t := m.Eng.Now()
			for i := 0; i < wakes; i++ {
				ths[i%threads].Wake()
				t += 5 * sim.Microsecond
				m.Eng.RunUntil(t)
			}
			return wakes, m.Eng
		}
	}
	lp.wake = pr.probe("kernel.wake_dispatch", func() func() (int, *sim.Engine) {
		return cycle(kernel.New(sim.New(seed), kernel.Config{NumCPUs: cpus}), rocksApp, func(*kernel.Thread) {})
	})
	if pm.agent != nil {
		lp.ghostMsg = pr.probe("ghost.msg_commit", func() func() (int, *sim.Engine) {
			host, app, err := syrup.NewHostApp(syrup.HostConfig{Seed: seed, NumCPUs: cpus}, rocksApp, rocksUID, rocksPort)
			if err != nil {
				panic(err)
			}
			workers := make([]int, cpus-1)
			for i := range workers {
				workers[i] = i
			}
			pol := &policy.GetPriority{TypeOf: func(*kernel.Thread) uint64 { return policy.ReqGET }}
			agent, err := app.DeployThreadPolicy(pol, cpus-1, workers, ghost.Config{})
			if err != nil {
				panic(err)
			}
			return cycle(host.Machine, rocksApp, func(t *kernel.Thread) {
				if err := agent.Register(t); err != nil {
					panic(err)
				}
			})
		})
	}

	// rocksdb: the storage engine calls the server makes per request.
	if pm.store != nil {
		store := rocksdb.NewStore()
		store.Preload(10_000)
		keys := make([]string, 10_000)
		for i := range keys {
			keys[i] = rocksdb.Key(i)
		}
		lp.get = pr.probe("rocksdb.get", func() func() (int, *sim.Engine) {
			return func() (int, *sim.Engine) {
				var rnd lcg = 2
				for i := 0; i < ops; i++ {
					store.Get(keys[rnd.next()%10_000])
				}
				return ops, nil
			}
		})
		lp.scan = pr.probe("rocksdb.scan", func() func() (int, *sim.Engine) {
			return func() (int, *sim.Engine) {
				var rnd lcg = 3
				for i := 0; i < ops>>10; i++ {
					store.Scan(keys[rnd.next()%10_000], 100)
				}
				return ops >> 10, nil
			}
		})
	}

	// metrics: the latency histogram every completion records into.
	h := metrics.NewHistogram()
	lp.histRecord = pr.probe("metrics.hist_record", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			var rnd lcg = 4
			for i := 0; i < 1<<20; i++ {
				h.Record(int64(10_000 + rnd.next()%500_000))
			}
			return 1 << 20, nil
		}
	})

	// syrupd + ebpf loader: one cold deploy of this workload's policy on a
	// fresh host, and the loader alone on the same instructions.
	dep := pm.dep
	lp.deploy = pr.probe("syrupd.deploy", func() func() (int, *sim.Engine) {
		w, err := fresh()
		if err != nil {
			panic(err)
		}
		d := w.members[0].host.Daemon
		if err := d.DetachApp(dep.app, dep.hook); err != nil {
			panic(err)
		}
		return func() (int, *sim.Engine) {
			if _, err := d.DeployBuiltin(dep.app, dep.hook, dep.policy, dep.defines); err != nil {
				panic(err)
			}
			return 1, nil
		}
	})
	src, err := policy.Source(dep.policy)
	if err != nil {
		return nil, err
	}
	lp.load = pr.probe("ebpf.load", func() func() (int, *sim.Engine) {
		f, err := ebpf.Assemble(src, dep.defines)
		if err != nil {
			panic(err)
		}
		insns, _, table, err := f.Instantiate(nil)
		if err != nil {
			panic(err)
		}
		return func() (int, *sim.Engine) {
			if _, err := ebpf.Load("probe", insns, ebpf.LoadOptions{MapTable: table}); err != nil {
				panic(err)
			}
			return 1, nil
		}
	})

	return lp, nil
}

// fleet measures the layers only the fleet workload loads:
// telemetry, the controller, hot swaps and the Maglev table.
func (pr prober) fleet(sp *spec, seed uint64, lp *layerProbes) error {
	ops := pr.ops
	acfg := experiments.DefaultAdaptive()
	fw, err := sp.build(sp, seed, probeWindows, nil, false)
	if err != nil {
		return err
	}
	m := fw.members[0]

	// obs: one sampler tick over this workload's registered series, with
	// the live histograms filled and moving as they are mid-run.
	live := m.gen.LiveStats()
	var rnd lcg = 5
	feed := func(n int) {
		for i := 0; i < n; i++ {
			live[i%len(live)].Latency.Record(int64(10_000 + rnd.next()%500_000))
		}
	}
	feed(1 << 16)
	at := m.host.Now()
	lp.sample = pr.probe("obs.sample", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			for i := 0; i < ops>>6; i++ {
				feed(16)
				at += acfg.ObsPeriod
				m.host.Obs.Sample(at)
			}
			return ops >> 6, nil
		}
	})
	hw := metrics.NewHistogramWindow(live[0].Latency)
	lp.histAdvance = pr.probe("metrics.hist_window_advance", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			for i := 0; i < ops>>5; i++ {
				feed(16)
				hw.Advance()
			}
			return ops >> 5, nil
		}
	})

	// adapt: the committed rule table ticking over series a sampler keeps
	// fresh, on an engine with nothing else in it. The actuator is never
	// reached: the series stay healthy.
	lp.tick = pr.probe("adapt.tick", func() func() (int, *sim.Engine) {
		eng := sim.New(seed)
		sa := obs.NewSampler(obs.Config{Period: acfg.ObsPeriod})
		sa.Gauge("latency_LS_win_p99_us", func() float64 { return 30 })
		sa.Gauge("offered_rps", func() float64 { return 160_000 })
		sa.Attach(eng)
		if _, err := adapt.New(eng, sa.Store(), nil, experiments.AdaptiveRules(acfg, 6)); err != nil {
			panic(err)
		}
		return func() (int, *sim.Engine) {
			eng.RunUntil(sim.Time(ops>>4) * acfg.ObsPeriod)
			return ops >> 4, eng
		}
	})

	// syrupd: the controller's actuation, a hot swap between the two
	// policies of the rule table on a live attachment.
	defines := map[string]int64{"NUM_THREADS": 6, "SHED_USER": beUser}
	lp.swap = pr.probe("syrupd.swap", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			for _, name := range []string{policy.NameShed, policy.NameRoundRobin} {
				if _, err := m.host.Daemon.DeployBuiltin(rocksApp, syrup.HookSocketSelect, name, defines); err != nil {
					panic(err)
				}
			}
			return 2, nil
		}
	})

	// cluster: the L4 load balancer's per-flow lookup.
	lp.lookup = pr.probe("cluster.lookup", func() func() (int, *sim.Engine) {
		return func() (int, *sim.Engine) {
			var rnd lcg = 6
			sum := 0
			for i := 0; i < 16*ops; i++ {
				sum += fw.fleet.Steer(uint32(rnd.next()))
			}
			sink = sum
			return 16 * ops, nil
		}
	})
	return nil
}

// sink keeps probe results alive so the compiler cannot drop the loop.
var sink int

// perLayer is the traced half of a run: one pass with the program's
// recorder and the benchmark's spans on, then the isolation probes, then
// the per-layer metrics and the budget that sets them against the
// end-to-end figure. m holds the untraced passes.
func perLayer(sp *spec, seed uint64, pl plan, m *measured, tr *tracer) ([]metric, error) {
	started := time.Now()
	tr.pass = m.passes
	tp, err := runPass(sp, seed, pl.win, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if tp.digest != m.last.digest {
		return nil, fmt.Errorf("the traced pass simulated something else than the untraced ones:\n%s\nvs\n%s", tp.digest, m.last.digest)
	}
	tr.pass = -1
	pr := prober{tr: tr, reps: pl.probeReps, ops: pl.probeOps}
	lp, err := pr.layers(sp, seed)
	if err == nil && m.last.w.fleet != nil {
		err = pr.fleet(sp, seed, lp)
	}
	if err != nil {
		return nil, err
	}

	// Counts come from the last untraced pass's public Stats, per request
	// offered in the measure window (warm-up work included on both sides
	// of every ratio, as in sim_req_per_cpu_s).
	w := m.last.w
	req := float64(w.result().All.Offered)
	var events, received, processed, hookRuns, hookFaults, ringDrops, stackDrops, served, samples, ticks uint64
	var msgs, commits, preempts, commitDrops, scans uint64
	for _, mb := range w.members {
		h := mb.host
		events += h.Eng.Fired()
		received += h.NIC.Stats.Received
		ringDrops += h.NIC.Stats.DroppedRing
		processed += h.Stack.Stats.Processed
		stackDrops += h.Stack.Stats.TotalDrops()
		st := mb.point.Stats()
		hookRuns, hookFaults = hookRuns+st.Runs, hookFaults+st.Faults
		served += mb.served()
		if a := mb.agent; a != nil {
			msgs, commits, preempts, commitDrops = msgs+a.Messages, commits+a.Commits, preempts+a.Preempts, commitDrops+a.CommitDrops
			hookFaults += a.Hook().Stats().Faults
		}
		if h.Obs != nil {
			samples += uint64(h.Now() / h.Obs.Period())
		}
		if ctl := h.Daemon.AdaptController(); ctl != nil {
			ticks += uint64(h.Now() / ctl.Period())
		}
	}
	// Stage means and request counts by stage come from the program's own
	// recorder in the traced pass; a SCAN is a request that ran for longer
	// than half a SCAN's service time.
	stage := func(s trace.Stage) (mean float64, n uint64) {
		var sum float64
		for _, mb := range tp.w.members {
			h := mb.rec.StageHistogram(s)
			sum, n = sum+h.Mean()*float64(h.Count()), n+h.Count()
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n) / 1e3, n
	}
	_, wakeups := stage(trace.StageRunqueue)
	if st := w.result().PerClass["SCAN"]; st != nil {
		// The server does not split its count by type; scale the measured
		// window's SCANs to the whole run.
		scans = uint64(float64(st.Completed) * float64(received) / req)
	}

	// Each probe's own cost: what it measured less the engine events and
	// hook runs inside it, and less the layers below it that the probe had
	// to go through (the generator sends into a NIC, the datapath enters
	// through one, a ghOSt cycle contains a kernel wake-up).
	fire, hookRun := lp.fire.ns, lp.hookRun.ns
	own := func(c cost) float64 { return c.ns - c.events*fire - c.hooks*hookRun }
	nicOwn, wakeOwn := own(lp.nicRx), own(lp.wake)
	var ghostOwn float64
	if lp.ghostMsg.ns > 0 {
		ghostOwn = own(lp.ghostMsg) - wakeOwn
	}
	measuredNS := 1e9 * m.runCPU / req
	parts := []struct {
		name string
		ns   float64
	}{
		{"sim", float64(events) * fire},
		{"workload", float64(received) * (own(lp.send) - nicOwn)},
		{"nic", float64(received) * nicOwn},
		{"netstack", float64(processed) * (own(lp.datapath) - nicOwn)},
		{"hook", float64(hookRuns) * hookRun},
		{"kernel", float64(wakeups) * wakeOwn},
		// One wake -> block cycle is two messages to the agent.
		{"ghost", float64(msgs) / 2 * ghostOwn},
		{"rocksdb", float64(served-scans)*lp.get.ns + float64(scans)*lp.scan.ns},
		{"metrics", float64(w.result().All.Completed) * lp.histRecord.ns},
		{"obs", float64(samples) * lp.sample.ns},
		{"adapt", float64(ticks) * own(lp.tick)},
	}
	var explained float64
	for _, p := range parts {
		explained += p.ns / req
	}

	// One traced pass against what one untraced pass costs (the median),
	// not against the floor the end-to-end figure is built from.
	traceOverhead := 100 * (tp.runCPU - m.runCPUMed) / m.runCPUMed
	out := []metric{
		{"sim.schedule_fire_ns", "ns", fire},
		{"sim.events_per_req", "1/req", float64(events) / req},
		{"ebpf.run_ns", "ns", lp.ebpfRun.ns},
		{"ebpf.load_us", "us", lp.load.ns / 1e3},
		{"hook.run_ns", "ns", hookRun},
		{"hook.self_ns", "ns", hookRun - lp.ebpfRun.ns},
		{"hook.run_batch_ns_per_pkt", "ns", lp.hookBatch.ns},
		{"hook.runs_per_req", "1/req", float64(hookRuns) / req},
		{"hook.faults", "count", float64(hookFaults)},
		{"nic.receive_ns", "ns", lp.nicRx.ns},
		{"nic.ring_drops", "count", float64(ringDrops)},
		{"netstack.deliver_ns", "ns", lp.datapath.ns - lp.nicRx.ns},
		{"netstack.drops", "count", float64(stackDrops)},
		{"kernel.wake_dispatch_ns", "ns", lp.wake.ns},
		{"ghost.msg_commit_ns", "ns", lp.ghostMsg.ns},
		{"ghost.msgs_per_req", "1/req", float64(msgs) / req},
		{"ghost.commits_per_req", "1/req", float64(commits) / req},
		{"ghost.preempts", "count", float64(preempts)},
		{"ghost.commit_drops", "count", float64(commitDrops)},
		{"rocksdb.get_ns", "ns", lp.get.ns},
		{"rocksdb.scan_ns", "ns", lp.scan.ns},
		{"workload.send_ns", "ns", lp.send.ns - lp.nicRx.ns},
		{"syrupd.deploy_us", "us", lp.deploy.ns / 1e3},
		{"syrupd.swap_us", "us", lp.swap.ns / 1e3},
		{"obs.sample_ns", "ns", lp.sample.ns},
		{"obs.samples_per_req", "1/req", float64(samples) / req},
		{"metrics.hist_record_ns", "ns", lp.histRecord.ns},
		{"metrics.hist_window_advance_ns", "ns", lp.histAdvance.ns},
		{"adapt.tick_ns", "ns", lp.tick.ns},
		{"adapt.decisions", "count", float64(len(w.decisions()))},
		{"cluster.lookup_ns", "ns", lp.lookup.ns},
		{"cluster.draw_split_s", "s", tr.cpuOf("Cluster.Split", m.passes)},
		{"cluster.rollout_s", "s", tr.cpuOf("Cluster.Rollout", m.passes) + tr.cpuOf("Cluster.RolloutRules", m.passes)},
		{"cluster.scrape_s", "s", tr.cpuOf("cluster.Scrape", m.passes)},
	}
	for _, s := range []trace.Stage{trace.StageNIC, trace.StageSoftirq, trace.StageProto, trace.StageSocket, trace.StageRunqueue, trace.StageOnCPU, trace.StageGhost} {
		mean, _ := stage(s)
		out = append(out, metric{"stage." + s.String() + ".sim_mean_us", "us", mean})
	}
	for _, p := range parts {
		out = append(out, metric{"budget." + p.name + "_ns_per_req", "ns/req", p.ns / req})
	}
	out = append(out,
		metric{"budget.measured_ns_per_req", "ns/req", measuredNS},
		metric{"budget.explained_pct", "%", 100 * explained / measuredNS},
		metric{"budget.residual_ns_per_req", "ns/req", measuredNS - explained},
		metric{"run.cpu_spread_pct", "%", 100 * (m.runCPUMed - m.runCPU) / m.runCPU},
		metric{"run.gc_cycles", "count", float64(m.last.gcs)},
		metric{"trace.overhead_pct", "%", traceOverhead},
		metric{"run.wall_s", "s", m.wall + time.Since(started).Seconds()},
	)
	return out, nil
}
