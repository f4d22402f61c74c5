package experiments

import (
	"fmt"

	"syrup"
	"syrup/internal/apps/mica"
	"syrup/internal/policy"
	"syrup/internal/workload"
)

// Fig9Config parameterizes §5.4: MICA with 8 threads, two GET/PUT mixes,
// steering at three layers — the application (original MICA software
// redirect), the kernel AF_XDP hook (Syrup SW), and the NIC (Syrup HW).
type Fig9Config struct {
	Loads   []float64
	GetFrac float64 // 0.5 for Fig. 9a, 0.95 for Fig. 9b
	Run     RunConfig
}

// DefaultFig9a mirrors the 50% GET / 50% PUT panel, up to 3.5 M RPS.
func DefaultFig9a() Fig9Config {
	return Fig9Config{Loads: loadsBetween(500_000, 3_500_000, 7), GetFrac: 0.5, Run: RunConfig{Windows: DefaultWindows}}
}

// DefaultFig9b mirrors the 95% GET / 5% PUT panel.
func DefaultFig9b() Fig9Config {
	return Fig9Config{Loads: loadsBetween(500_000, 3_500_000, 7), GetFrac: 0.95, Run: RunConfig{Windows: DefaultWindows}}
}

const (
	micaPort = 9100
	micaApp  = 2
	micaUID  = 1001
	micaN    = 8
)

type micaPoint struct {
	Seed    uint64
	Load    float64
	Mode    mica.Mode
	GetFrac float64
	Run     RunConfig
}

// micaMix is the GET/PUT class mix at the given GET share.
func micaMix(getFrac float64) []workload.Class {
	return []workload.Class{
		{Name: "GET", Weight: getFrac, Type: policy.ReqGET},
		{Name: "PUT", Weight: 1 - getFrac, Type: policy.ReqPUT},
	}
}

// wireMICA is the one MICA wiring — the Fig. 9 points and RunCluster's
// members both call it, then deploy and start in their own order: the
// generator over a 1 M keyspace on port 9100, the 8-thread server
// completing into it, and the workload series on the host's sampler.
// Nothing is started.
func wireMICA(host *syrup.Host, load workload.Config, srv mica.Config) (*workload.Generator, *mica.Server) {
	load.DstPort, load.KeySpace = micaPort, 1<<20
	gen := workload.New(host.Eng, host.NIC, load)
	instrumentHost(host, gen, load.Classes)
	srv.Port, srv.App, srv.NumThreads, srv.OnComplete = micaPort, micaApp, micaN, gen.Complete
	return gen, mica.NewServer(host.Eng, host.Machine, host.Stack, srv)
}

// runMicaPoint builds a MICA host with the requested steering backend.
// The same mica_hash policy file is deployed at the kernel hook (SW) or
// the NIC hook (HW) — the paper's portability claim in action.
func runMicaPoint(pt micaPoint) (*workload.Result, *syrup.Host) {
	host, app := syrup.MustHostApp(syrup.HostConfig{
		Seed:      pt.Seed,
		NumCPUs:   micaN,
		NICQueues: micaN,
		Telemetry: pt.Run.telemetry(),
	}, micaApp, micaUID, micaPort)
	load := pt.Run.load(pt.Load)
	load.Classes = micaMix(pt.GetFrac)
	gen, srv := wireMICA(host, load, mica.Config{Mode: pt.Mode})

	// Steering deployment through syrupd.
	micaDefines := map[string]int64{"NUM_EXECUTORS": micaN}
	deploy := func(hook syrup.Hook, source string, defines map[string]int64) {
		if _, err := app.DeployPolicy(source, hook, defines); err != nil {
			panic(fmt.Sprintf("fig9 deploy: %v", err))
		}
	}
	// All modes use AF_XDP: a kernel XDP program must move packets into
	// the sockets. For SW it is the steering policy itself; for HW and
	// app-redirect it is a trivial redirect into the queue's only socket.
	trivial := "r0 = 0\nexit\n"
	switch pt.Mode {
	case mica.ModeSyrupSW:
		deploy(syrup.HookXDPSkb, policy.MustSource(policy.NameMicaHash), micaDefines)
	case mica.ModeSyrupHW:
		deploy(syrup.HookXDPOffload, policy.MustSource(policy.NameMicaHash), micaDefines)
		deploy(syrup.HookXDPSkb, trivial, nil)
	case mica.ModeSWRedirect:
		deploy(syrup.HookXDPSkb, trivial, nil)
	}

	srv.Start()
	return finish(1, gen)[0], host
}

// Fig9 reproduces Figure 9: 99.9% latency vs load for the three steering
// layers, at the configured GET/PUT mix.
func Fig9(cfg Fig9Config) *Result {
	panel := "a (50% GET / 50% PUT)"
	if cfg.GetFrac > 0.5 {
		panel = "b (95% GET / 5% PUT)"
	}
	res := &Result{
		Name:    "fig9",
		Title:   "MICA, 8 threads, steering at app vs kernel vs NIC — panel " + panel + " (paper Fig. 9)",
		XLabel:  "load (RPS)",
		Columns: []string{"p999_us", "p99_us", "drop_pct"},
		Notes: []string{
			"identical mica_hash policy file deployed at the kernel AF_XDP hook (SW) and the NIC offload hook (HW)",
			"generic-mode AF_XDP (no zero copy), matching the Netronome's capabilities in §5.4",
		},
	}
	modes := []mica.Mode{mica.ModeSWRedirect, mica.ModeSyrupSW, mica.ModeSyrupHW}
	// Fan out every (mode, load) pair in one worker pool so a slow mode
	// does not serialize behind the others.
	grid := sweepGrid(cfg.Run, len(modes), cfg.Loads, func(si int, load float64) Row {
		r, _ := runMicaPoint(micaPoint{
			Seed: 53, Load: load, Mode: modes[si], GetFrac: cfg.GetFrac,
			Run: cfg.Run,
		})
		return Row{X: load, Cols: map[string]float64{
			"p999_us":  float64(r.All.Latency.Percentile(99.9)) / 1000,
			"p99_us":   float64(r.All.Latency.Percentile(99)) / 1000,
			"drop_pct": 100 * r.All.DropFraction(),
		}}
	})
	for si, mode := range modes {
		res.Series = append(res.Series, Series{Name: mode.String(), Rows: grid[si]})
	}
	return res
}
