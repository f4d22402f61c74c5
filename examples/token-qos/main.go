// Token-qos: multi-tenant SLO enforcement with the token policy
// (paper §3.4 and §5.2.2, Figure 7).
//
// Two tenants share one RocksDB server: a latency-sensitive (LS) user and
// a best-effort (BE) user. The token policy grants the LS user 350K
// tokens/s in 100us epochs; each LS request consumes a token and requests
// beyond the budget are DROPped in the kernel before they can queue.
// Leftover tokens are gifted to the BE user each epoch — the userspace
// agent and the kernel policy coordinate purely through a Syrup Map.
package main

import (
	"fmt"
	"log"

	"syrup"
	"syrup/internal/apps/rocksdb"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/workload"
)

func main() {
	fmt.Println("two tenants, total 400K RPS offered, tokens: 350K/s to LS, leftovers gifted to BE")
	fmt.Println()
	fmt.Printf("%-10s %14s %14s %16s %16s\n", "LS load", "LS p99 (us)", "LS drops", "BE tput (RPS)", "BE drops")
	for _, lsLoad := range []float64{100_000, 200_000, 300_000} {
		lsP99, lsDrop, beTput, beDrop := run(lsLoad, 400_000-lsLoad)
		fmt.Printf("%-10.0f %14.1f %13.2f%% %16.0f %15.2f%%\n",
			lsLoad, lsP99, 100*lsDrop, beTput, 100*beDrop)
	}
	fmt.Println("\nthe LS tail stays flat as its load grows: excess BE traffic is")
	fmt.Println("dropped at the Socket Select hook before it can queue (Fig. 7).")
}

func run(lsLoad, beLoad float64) (lsP99, lsDrop, beTput, beDrop float64) {
	total := lsLoad + beLoad
	host, app := syrup.MustHostApp(syrup.HostConfig{Seed: 3, NumCPUs: 6, NICQueues: 6}, 1, 1000, 9000)
	gen := workload.New(host.Eng, host.NIC, workload.Config{
		Rate:    total,
		DstPort: 9000,
		Classes: []workload.Class{
			{Name: "LS", Weight: lsLoad / total, Type: policy.ReqGET, UserID: 0},
			{Name: "BE", Weight: beLoad / total, Type: policy.ReqGET, UserID: 1},
		},
		Warmup:  50 * syrup.Millisecond,
		Measure: 300 * syrup.Millisecond,
		Drain:   150 * syrup.Millisecond,
	})
	srv := rocksdb.NewServer(host.Eng, host.Machine, host.Stack, rocksdb.Config{
		Port: 9000, App: 1, NumThreads: 6, PinToCores: true,
		// Heavier GETs put 6-core saturation just under the 400K offered
		// total, as in the paper's setup.
		Service: func(rng interface{ Float64() float64 }, _ uint64) sim.Time {
			return sim.Time(12_000 + 1_700*rng.Float64())
		},
		OnComplete: gen.Complete,
	})

	dep, err := app.DeployBuiltin(policy.NameToken, syrup.HookSocketSelect, nil)
	if err != nil {
		log.Fatal(err)
	}
	// The userspace half: replenish every epoch, gift leftovers.
	agent := &policy.TokenAgent{
		Tokens:   dep.Maps["tokens"],
		LSUser:   0,
		BEUser:   1,
		PerEpoch: 35, // 350K/s in 100us epochs
	}
	agent.Start(host.Eng)

	srv.Start()
	res := gen.RunToCompletion()
	ls, be := res.PerClass["LS"], res.PerClass["BE"]
	return float64(ls.Latency.Percentile(99)) / 1000, ls.DropFraction(),
		be.ThroughputRPS(), be.DropFraction()
}
