package main

import (
	"fmt"
	"runtime"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the run length every
// spec.passes is sized for. -seconds scales the pass count in proportion
// and never looks at a clock.
const runSeconds = 20

// pass is what one pass of the protocol measured.
type pass struct {
	setupCPU []float64 // CPU seconds of each cold set-up
	runCPU   float64   // CPU seconds of the timed run
	runWall  float64
	// chunkCPU is the timed run again, stretch by stretch: CPU seconds of
	// every sp.chunk of simulated time of every host, then of the fleet's
	// scrape (nil in the traced pass, which is cut at the windows instead).
	chunkCPU []float64
	mallocs  uint64 // runtime.MemStats deltas across the timed run
	bytes    uint64
	gcs      uint32
	digest   string
	w        *world
}

// runPass is one pass: GC, cold set-up (timed, sp.setups times, the last
// world kept), GC, timed run. tr is nil except in the traced pass.
func runPass(sp *spec, seed uint64, win windows, tr *tracer) (*pass, error) {
	p := &pass{}
	root := tr.begin("pass")
	for i := 0; i < sp.setups; i++ {
		p.w = nil
		runtime.GC()
		s := tr.begin("setup")
		c0 := cpuNow()
		w, err := sp.build(sp, seed, win, tr, false)
		p.setupCPU = append(p.setupCPU, cpuNow()-c0)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.w = w
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := tr.begin("run")
	t0, c0 := time.Now(), cpuNow()
	var err error
	p.chunkCPU, err = p.w.run(tr)
	p.runCPU, p.runWall = cpuNow()-c0, time.Since(t0).Seconds()
	tr.end(s)
	runtime.ReadMemStats(&m1)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	p.mallocs, p.bytes, p.gcs = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	p.digest = p.w.digest()
	return p, nil
}

// measured is a run's untraced passes reduced to the numbers the metrics
// are built from.
//
// The timed run's host time is a floor: every pass cuts its run into the
// same stretches of simulated time (sp.chunk, about a tenth of a CPU
// second each), each stretch keeps the fastest of its repetitions over
// the counted passes, and runCPU is the sum. Identical work can only be
// slowed, and on this shared box it is slowed mostly in bursts shorter
// than a pass (a neighbour's turn on the core, cold caches after it), so
// a stretch is far likelier to have been seen undisturbed once in k-1
// repetitions than a whole two-second pass is. Between runs this floor
// spread 0.45 to 0.7 of what the median pass does and 0.7 to 1.0 of what
// the fastest whole pass does (README.md, "Measurement protocol", has the
// recordings); what is left is the box running slower for longer than a
// run lasts, which nothing inside a run can see.
type measured struct {
	passes    int
	runCPU    float64 // sum over the stretches of the fastest repetition
	runCPUMed float64 // median whole pass: what a single pass costs here, noise included
	setupCPU  float64 // median over every cold set-up of every counted pass
	wall      float64 // wall seconds of the counted passes' timed runs
	last      *pass
	liveHeap  uint64
	// log keeps every pass's raw readings for the human-readable output.
	log []string
}

// measure runs k identical passes, discards pass 0 as warm-up, checks that
// every pass simulated the same thing, and keeps the last world alive for
// the live-heap reading.
func measure(sp *spec, seed uint64, win windows, k int) (*measured, error) {
	var runs, setups []float64
	var chunks [][]float64 // every counted pass's stretches
	m := &measured{passes: k}
	for i := 0; i < k; i++ {
		digest := ""
		if m.last != nil {
			digest = m.last.digest
		}
		m.last = nil // drop the previous world before building the next
		p, err := runPass(sp, seed, win, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if i > 0 && p.digest != digest {
			return nil, fmt.Errorf("pass %d simulated something else than pass %d:\n%s\nvs\n%s", i, i-1, p.digest, digest)
		}
		m.last = p
		m.log = append(m.log, fmt.Sprintf("pass %d: run %.4f cpu-s %.4f wall-s in %d stretches, set-up %.5f cpu-s, %d mallocs, %d B, %d GCs", i, p.runCPU, p.runWall, len(p.chunkCPU), median(p.setupCPU), p.mallocs, p.bytes, p.gcs))
		if i == 0 {
			continue
		}
		chunks = append(chunks, p.chunkCPU)
		runs = append(runs, p.runCPU)
		setups = append(setups, p.setupCPU...)
		m.wall += p.runWall
	}
	var err error
	if m.runCPU, err = floorSum(chunks); err != nil {
		return nil, err
	}
	m.runCPUMed = median(runs)
	m.setupCPU = median(setups)
	m.log = append(m.log, fmt.Sprintf("timed run: %.4f cpu-s as the sum of each stretch's fastest repetition, %.4f the fastest whole pass, %.4f the median pass", m.runCPU, minOf(runs), m.runCPUMed))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeap = ms.HeapAlloc
	runtime.KeepAlive(m.last)
	return m, nil
}

// passesFor scales a spec's pass count to -seconds; three is the least
// that leaves two counted passes to pick the faster stretches from.
func passesFor(sp *spec, seconds int) int {
	k := (sp.passes*seconds + runSeconds/2) / runSeconds
	if k < 3 {
		k = 3
	}
	return k
}
