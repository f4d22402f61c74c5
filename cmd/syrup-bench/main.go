// Command syrup-bench regenerates the paper's tables and figures on the
// simulated host and prints them as aligned text tables.
//
// Usage:
//
//	syrup-bench [-fast] [-points N] [-seeds N] fig2|fig6|fig7|fig8|fig9a|fig9b|table2|table3|ablation-late|ablation-rfs|all
//
// It can also run a single load point with the cross-stack request tracer
// on, printing the per-stage latency breakdown and/or exporting a Chrome
// trace_event file for chrome://tracing / Perfetto:
//
//	syrup-bench -breakdown -load 150000
//	syrup-bench -trace out.json -load 150000 -scan-pct 0.5 -policy scan_avoid
//
// And it can run one chaos comparison — the same point clean and under a
// fault plan with the quarantine watchdog armed — printing the goodput
// degradation report:
//
//	syrup-bench -faults default -load 150000
//	syrup-bench -faults 'site=socket-select prob=0.3; site=nic-ring prob=0.01'
//	syrup-bench -faults @plan.txt -policy scan_avoid
//
// With -hosts it runs the fleet-scale scenario instead: N hosts behind the
// Maglev L4 load balancer, policies deployed through the cluster control
// plane's staged rollout, per-host and fleet-aggregate stats printed as a
// table. -workers bounds the simulation worker pool (results are
// bit-identical at any width):
//
//	syrup-bench -hosts 32
//	syrup-bench -hosts 32 -workers 4 -app mica -flows 2097152
//
// With -adapt it runs the closed-loop adaptive scheduling demo: the
// diurnal+burst two-tenant scenario under every static policy and under
// the adapt controller (fire on LS p99 SLO burn -> shed, clear on
// offered load -> round_robin), printing each contestant's point on the
// latency/goodput frontier plus the controller's decision log:
//
//	syrup-bench -adapt
//	syrup-bench -adapt -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"syrup/internal/experiments"
	"syrup/internal/faults"
	"syrup/internal/par"
)

func main() {
	fast := flag.Bool("fast", false, "use short measurement windows (quick, noisier)")
	points := flag.Int("points", 0, "override number of load points per series")
	seeds := flag.Int("seeds", 0, "override seeds per point (fig2/fig6)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile to `file` at exit")
	breakdown := flag.Bool("breakdown", false, "run one traced point and print the per-stage latency breakdown")
	traceOut := flag.String("trace", "", "run one traced point and write Chrome trace_event JSON to `file`")
	faultsPlan := flag.String("faults", "", "run one chaos comparison under this fault `plan` (inline text, @file, or \"default\") and print the degradation report")
	load := flag.Float64("load", 0, "offered RPS for -breakdown/-trace/-faults (default 150000)")
	scanPct := flag.Float64("scan-pct", 0, "percent SCAN requests for -breakdown/-trace/-faults")
	polName := flag.String("policy", "round_robin", "socket policy for -breakdown/-trace/-faults (vanilla|round_robin|scan_avoid|sita)")
	seed := flag.Uint64("seed", 1, "simulation seed for -breakdown/-trace/-faults")
	hosts := flag.Int("hosts", 0, "run the fleet-scale cluster scenario on N hosts behind the Maglev L4 LB")
	adaptDemo := flag.Bool("adapt", false, "run the closed-loop adaptive scheduling demo (controller vs every static policy)")
	workers := flag.Int("workers", 0, "simulation worker-pool size for sweeps and cluster runs (0 = one per CPU; results are bit-identical at any width)")
	flows := flag.Int("flows", 0, "cluster flow-pool size for -hosts (default 1048576)")
	lsFrac := flag.Float64("ls-frac", 0, "latency-sensitive load share for -hosts app=rocksdb (default 0.5)")
	clusterApp := flag.String("app", "rocksdb", "cluster scenario app for -hosts (rocksdb|mica)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: syrup-bench [flags] fig2|fig6|fig7|fig8|fig9a|fig9b|table2|table3|ablation-late|ablation-rfs|all\n")
		fmt.Fprintf(os.Stderr, "       syrup-bench [-fast] -breakdown|-trace file [-load RPS] [-scan-pct P] [-policy NAME] [-seed N]\n")
		fmt.Fprintf(os.Stderr, "       syrup-bench [-fast] -faults plan|@file|default [-load RPS] [-scan-pct P] [-policy NAME] [-seed N]\n")
		fmt.Fprintf(os.Stderr, "       syrup-bench [-fast] -hosts N [-workers W] [-app rocksdb|mica] [-flows F] [-ls-frac P] [-load RPS] [-seed N]\n")
		fmt.Fprintf(os.Stderr, "       syrup-bench -adapt [-seed N]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	traced := *breakdown || *traceOut != ""
	single := traced || *faultsPlan != "" || *hosts > 0 || *adaptDemo
	if (flag.NArg() != 1 && !single) || (flag.NArg() != 0 && single) {
		flag.Usage()
		os.Exit(2)
	}
	if traced && *faultsPlan != "" {
		fmt.Fprintf(os.Stderr, "syrup-bench: -faults cannot be combined with -breakdown/-trace\n")
		os.Exit(2)
	}
	if *hosts > 0 && (traced || *faultsPlan != "") {
		fmt.Fprintf(os.Stderr, "syrup-bench: -hosts cannot be combined with -breakdown/-trace/-faults\n")
		os.Exit(2)
	}
	if *adaptDemo && (traced || *faultsPlan != "" || *hosts > 0) {
		fmt.Fprintf(os.Stderr, "syrup-bench: -adapt cannot be combined with -breakdown/-trace/-faults/-hosts\n")
		os.Exit(2)
	}

	if _, err := experiments.ScanMix(*scanPct); err != nil {
		fmt.Fprintf(os.Stderr, "syrup-bench: %v\n", err)
		os.Exit(2)
	}

	run := experiments.RunConfig{Windows: experiments.DefaultWindows, Workers: *workers}
	if *fast {
		run.Windows = experiments.FastWindows
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *adaptDemo {
		cfg := experiments.DefaultAdaptive()
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if seedSet {
			cfg.Seed = *seed
		}
		start := time.Now()
		fmt.Print(experiments.Adaptive(cfg).Format())
		fmt.Printf("\n[adaptive demo completed in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *hosts > 0 {
		cfg := experiments.ClusterConfig{
			Hosts:  *hosts,
			Seed:   *seed,
			App:    *clusterApp,
			Flows:  *flows,
			LSFrac: *lsFrac,
			Run:    run,
		}
		if *load > 0 {
			cfg.TotalLoad = *load
		}
		start := time.Now()
		cr, err := experiments.RunCluster(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(cr.Format())
		fmt.Printf("\n[%d-host cluster (%d flows, %d workers) completed in %v]\n",
			*hosts, totalFlows(cr), par.Resolve(*workers), time.Since(start).Round(time.Millisecond))
		return
	}

	if *faultsPlan != "" {
		plan, err := loadPlan(*faultsPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(1)
		}
		cfg := experiments.ChaosConfig{
			Seed:    *seed,
			ScanPct: *scanPct,
			Policy:  experiments.SocketPolicy(*polName),
			Plan:    plan,
			Run:     run,
		}
		if *load > 0 {
			cfg.Load = *load
		}
		start := time.Now()
		fmt.Print(experiments.RunChaos(cfg).Format())
		fmt.Printf("\n[chaos comparison completed in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if traced {
		cfg := experiments.DefaultTrace()
		cfg.Run = run
		cfg.Seed = *seed
		cfg.ScanPct = *scanPct
		cfg.Policy = experiments.SocketPolicy(*polName)
		if *load > 0 {
			cfg.Load = *load
		}
		start := time.Now()
		tr := experiments.RunTraced(cfg)
		if *breakdown {
			fmt.Print(tr.FormatBreakdown())
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			if err := tr.WriteChrome(f); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d spans to %s (open in chrome://tracing or Perfetto)\n",
				len(tr.Recorder.Spans()), *traceOut)
		}
		fmt.Printf("\n[traced point completed in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}

	figure := func(name string) {
		start := time.Now()
		switch name {
		case "fig2":
			cfg := experiments.DefaultFig2()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			if *seeds > 0 {
				cfg.Seeds = *seeds
			}
			fmt.Print(experiments.Fig2(cfg).Format())
		case "fig6":
			cfg := experiments.DefaultFig6()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			if *seeds > 0 {
				cfg.Seeds = *seeds
			}
			fmt.Print(experiments.Fig6(cfg).Format())
		case "fig7":
			cfg := experiments.DefaultFig7()
			cfg.Run = run
			if *points > 0 {
				cfg.LSLoads = resize(cfg.LSLoads, *points)
			}
			fmt.Print(experiments.Fig7(cfg).Format())
		case "fig8":
			cfg := experiments.DefaultFig8()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			fmt.Print(experiments.Fig8(cfg).Format())
		case "fig9a":
			cfg := experiments.DefaultFig9a()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			fmt.Print(experiments.Fig9(cfg).Format())
		case "fig9b":
			cfg := experiments.DefaultFig9b()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			fmt.Print(experiments.Fig9(cfg).Format())
		case "ablation-late":
			cfg := experiments.DefaultAblationLateBinding()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			fmt.Print(experiments.AblationLateBinding(cfg).Format())
		case "ablation-rfs":
			cfg := experiments.DefaultAblationRFS()
			cfg.Run = run
			if *points > 0 {
				cfg.Loads = resize(cfg.Loads, *points)
			}
			fmt.Print(experiments.AblationRFS(cfg).Format())
		case "table2":
			rows, err := experiments.Table2()
			if err != nil {
				fmt.Fprintf(os.Stderr, "table2: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(experiments.FormatTable2(rows))
		case "table3":
			fmt.Print(experiments.FormatTable3(experiments.Table3()))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if flag.Arg(0) == "all" {
		for _, name := range []string{"fig2", "fig6", "fig7", "fig8", "fig9a", "fig9b", "table2", "table3", "ablation-late", "ablation-rfs"} {
			figure(name)
		}
		return
	}
	figure(flag.Arg(0))
}

// loadPlan resolves the -faults argument: "default" names the built-in
// mixed plan, @file reads a plan file, anything else is inline plan text.
func loadPlan(arg string) (*faults.Plan, error) {
	if arg == "default" {
		return experiments.DefaultChaosPlan(), nil
	}
	text := arg
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		text = string(b)
	}
	return faults.ParsePlan(text)
}

// totalFlows sums the members' flow shares.
func totalFlows(run *experiments.ClusterRun) int {
	n := 0
	for _, m := range run.Members {
		n += m.Flows
	}
	return n
}

// resize picks n approximately evenly spaced entries from loads.
func resize(loads []float64, n int) []float64 {
	if n >= len(loads) || n < 2 {
		return loads
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = loads[i*(len(loads)-1)/(n-1)]
	}
	return out
}
