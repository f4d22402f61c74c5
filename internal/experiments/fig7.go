package experiments

import (
	"syrup/internal/apps/rocksdb"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

// Fig7Config parameterizes §5.2.2: two tenants — latency-sensitive (LS)
// and best-effort (BE) — both issuing GETs, total offered load fixed at
// 400 K RPS (slightly above saturation), tokens granted to LS at 350 K/s
// in 100 µs epochs with leftovers gifted to BE.
type Fig7Config struct {
	LSLoads   []float64
	TotalLoad float64
	TokenRate float64
	Run       RunConfig
}

// DefaultFig7 mirrors the paper's axes: LS load 50–350 K.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		LSLoads:   loadsBetween(50_000, 350_000, 7),
		TotalLoad: 400_000,
		TokenRate: 350_000,
		Run:       RunConfig{Windows: DefaultWindows},
	}
}

// fig7Service places 6-core saturation slightly below 400 K RPS as in the
// paper (§5.2.2 keeps the system "slightly below its saturation rate" at
// 350 K tokens/s): effective per-GET server cost ≈ 15.4 µs including the
// 2.5 µs request overheads.
func fig7Service(rng interface{ Float64() float64 }, reqType uint64) sim.Time {
	return sim.Time(12_000 + 1_700*rng.Float64())
}

// Fig7 reproduces Figure 7: BE throughput (a) and LS 99% latency (b)
// across LS/BE load splits, Round Robin vs Token-based.
func Fig7(cfg Fig7Config) *Result {
	res := &Result{
		Name:    "fig7",
		Title:   "Two tenants (LS+BE), total 400K RPS, tokens 350K/s (paper Fig. 7)",
		XLabel:  "LS load (RPS)",
		Columns: []string{"be_tput_rps", "ls_p99_us", "ls_drop_pct", "be_drop_pct"},
		Notes: []string{
			"per-GET service recalibrated to ~14.2us so 6-core saturation sits just below 400K RPS, matching the paper's setup",
			"token policy: consume per LS request, DROP at zero balance, leftovers gifted to BE each 100us epoch",
		},
	}
	for _, s := range []struct {
		name string
		pol  SocketPolicy
	}{
		{"Round Robin", PolicyRoundRobin},
		{"Token-based", PolicyToken},
	} {
		s := s
		rows := sweep(cfg.Run, cfg.LSLoads, func(lsLoad float64) Row {
			beLoad := cfg.TotalLoad - lsLoad
			r := runRocksPoint(rocksPoint{
				Seed:       31,
				Load:       cfg.TotalLoad,
				NumCPUs:    6,
				NumThreads: 6,
				PinToCores: true,
				Classes: []workload.Class{
					{Name: "LS", Weight: lsLoad / cfg.TotalLoad, Type: policy.ReqGET, UserID: 0},
					{Name: "BE", Weight: beLoad / cfg.TotalLoad, Type: policy.ReqGET, UserID: 1},
				},
				Policy:    s.pol,
				Service:   fig7Service,
				TokenRate: cfg.TokenRate,
				LSUser:    0,
				BEUser:    1,
				Run:       cfg.Run,
			}).Result
			ls := r.PerClass["LS"]
			be := r.PerClass["BE"]
			return Row{X: lsLoad, Cols: map[string]float64{
				"be_tput_rps": be.ThroughputRPS(),
				"ls_p99_us":   float64(ls.Latency.Percentile(99)) / 1000,
				"ls_drop_pct": 100 * ls.DropFraction(),
				"be_drop_pct": 100 * be.DropFraction(),
			}}
		})
		res.Series = append(res.Series, Series{Name: s.name, Rows: rows})
	}
	return res
}

var _ rocksdb.ServiceModel = fig7Service
