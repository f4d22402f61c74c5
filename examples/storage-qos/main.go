// Storage-qos: Syrup's matching abstraction extended to storage
// (paper §6.1).
//
// Inputs are IO requests, executors are NVMe submission queues — and the
// policy gating them is the UNMODIFIED token.syr file from the network
// experiments, now acting as Reflex-style IOPS admission control. A
// latency-sensitive read tenant shares a 4-queue SSD with a tenant
// flooding 450us flash writes; without admission the read tail explodes,
// with it the reads stay bounded.
package main

import (
	"fmt"
	"log"

	"syrup/internal/hook"
	"syrup/internal/metrics"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/storage"
)

func main() {
	fmt.Println("4-queue SSD, tenant 0: 2000 read IOPS (85us), tenant 1: 3000 write IOPS offered (450us)")
	fmt.Println()
	fmt.Printf("%-32s %12s %12s %14s\n", "admission policy", "read p50", "read p99", "writes done/s")
	for _, withPolicy := range []bool{false, true} {
		name := "none (writes flood the device)"
		if withPolicy {
			name = "token.syr (writes capped at 200 IOPS)"
		}
		p50, p99, wps := run(withPolicy)
		fmt.Printf("%-32s %10.0fus %10.0fus %14.0f\n", name, p50, p99, wps)
	}
	fmt.Println("\nsame policy file, same verifier, different layer of the stack:")
	fmt.Println("the executor map now holds NVMe queues instead of sockets (§6.1).")
}

func run(withPolicy bool) (p50, p99, writesPerSec float64) {
	eng := sim.New(9)
	lat := metrics.NewHistogram()
	var writesDone uint64
	dev := storage.NewDevice(&hook.Host{Eng: eng}, storage.Config{
		Queues: 4,
		OnComplete: func(req *storage.Request, at sim.Time) {
			if req.Tenant == 0 {
				lat.Record(int64(at - req.SubmittedAt))
			} else {
				writesDone++
			}
		},
	})
	if withPolicy {
		prog, maps, err := policy.Load(policy.NameToken, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		dev.SetPolicy(prog)
		tokens := maps["tokens"]
		tokens.UpdateUint64(0, 1<<40) // reads unthrottled
		eng.NewTicker(5*sim.Millisecond, func() {
			tokens.UpdateUint64(1, 1) // writer: 200 IOPS budget
		})
	}
	var id uint64
	eng.NewTicker(500*sim.Microsecond, func() {
		id++
		dev.Submit(&storage.Request{ID: id, Tenant: 0, Kind: storage.Read,
			LBA: uint64(eng.Rand().IntN(1 << 20))})
	})
	eng.NewTicker(333*sim.Microsecond, func() {
		id++
		dev.Submit(&storage.Request{ID: id, Tenant: 1, Kind: storage.Write,
			LBA: uint64(eng.Rand().IntN(1 << 20))})
	})
	const window = 3 * sim.Second
	eng.RunUntil(window)
	return float64(lat.Percentile(50)) / 1000,
		float64(lat.Percentile(99)) / 1000,
		float64(writesDone) / (float64(window) / 1e9)
}
