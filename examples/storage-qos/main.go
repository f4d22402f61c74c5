// Storage-qos: Syrup's matching abstraction extended to storage
// (paper §6.1).
//
// Inputs are IO requests, executors are NVMe submission queues — and the
// policy gating them is the UNMODIFIED token.syr file from the network
// experiments, deployed through syrupd at the storage hook and now acting
// as Reflex-style IOPS admission control. A latency-sensitive read tenant
// shares a 4-queue SSD with a tenant flooding 450us flash writes; without
// admission the read tail explodes, with it the reads stay bounded.
package main

import (
	"fmt"
	"log"
	"strings"

	"syrup"
	"syrup/internal/metrics"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/storage"
)

func main() {
	fmt.Println("4-queue SSD, tenant 0: 2000 read IOPS (85us), tenant 1: 3000 write IOPS offered (450us)")
	fmt.Println()
	fmt.Printf("%-32s %12s %12s %14s\n", "admission policy", "read p50", "read p99", "writes done/s")
	var counters []string
	for _, withPolicy := range []bool{false, true} {
		name := "none (writes flood the device)"
		if withPolicy {
			name = "token.syr (writes capped at 200 IOPS)"
		}
		var p50, p99, wps float64
		p50, p99, wps, counters = run(withPolicy)
		fmt.Printf("%-32s %10.0fus %10.0fus %14.0f\n", name, p50, p99, wps)
	}
	fmt.Printf("\nthe token.syr host's storage counters: %s\n", strings.Join(counters, " "))
	fmt.Println("\nsame policy file, same verifier, different layer of the stack:")
	fmt.Println("the executor map now holds NVMe queues instead of sockets (§6.1).")
}

// run drives one host's SSD for three seconds, with or without token.syr
// at its storage hook, and returns the read percentiles, the write rate
// and the host's storage counter rows.
func run(withPolicy bool) (p50, p99, writesPerSec float64, counters []string) {
	host, app := syrup.MustHostApp(syrup.HostConfig{Seed: 9}, 1, 1000)
	eng := host.Eng
	lat := metrics.NewHistogram()
	var writesDone uint64
	dev := host.AttachStorage(storage.Config{
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
		dep, err := app.DeployBuiltin(policy.NameToken, syrup.HookStorage, nil)
		if err != nil {
			log.Fatal(err)
		}
		tokens := dep.Maps["tokens"]
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
	for _, cv := range host.Daemon.Counters() {
		if strings.Contains(cv.Name, "storage") {
			counters = append(counters, fmt.Sprintf("%s=%d", cv.Name, cv.Value))
		}
	}
	return float64(lat.Percentile(50)) / 1000,
		float64(lat.Percentile(99)) / 1000,
		float64(writesDone) / (float64(window) / 1e9),
		counters
}
