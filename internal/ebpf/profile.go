package ebpf

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Per-program profiling, modeled on the kernel's bpf_stats_enabled
// run-time/run-count accounting plus bpftool-prog-profile-style
// per-instruction counters. Profiling is opt-in at load time
// (LoadOptions.Profile) because the counters cost an atomic add per
// executed instruction; an unprofiled load carries a single nil field.
// Profiling is not a mode: a profiled program is decoded and walked
// exactly like an unprofiled one, and the walker bumps hits[pc] itself —
// exact by construction, because one op is one source instruction. The
// measured cost is reported in EXPERIMENTS.md.

// profData holds a profiled program's counters: one hit counter per
// instruction slot (atomic: programs run concurrently across hosts'
// goroutines in cluster sweeps) and cumulative wall nanoseconds.
type profData struct {
	hits  []atomic.Uint64
	nanos atomic.Uint64
}

func newProfData(n int) *profData { return &profData{hits: make([]atomic.Uint64, n)} }

// Profiling reports whether this load carries per-instruction counters.
func (p *Program) Profiling() bool { return p.prof != nil }

// ProfileSnapshot is a point-in-time copy of a program's profile.
type ProfileSnapshot struct {
	Name string `json:"name"`
	// Runs and Insns mirror Stats(): invocations and executed
	// instructions (charged per tail-call segment).
	Runs  uint64 `json:"runs"`
	Insns uint64 `json:"insns"`
	// Nanos is cumulative wall time. Timing is charged to the entry
	// program of each dispatch — a tail-call chain bills its caller,
	// matching how the datapath accounts policy cost.
	Nanos uint64 `json:"nanos"`
	// Hits holds per-instruction-slot execution counts (the high half of
	// an LDDW pair never executes and stays 0).
	Hits []uint64 `json:"hits,omitempty"`
}

// NanosPerRun reports mean wall nanoseconds per invocation.
func (s *ProfileSnapshot) NanosPerRun() float64 {
	if s == nil || s.Runs == 0 {
		return 0
	}
	return float64(s.Nanos) / float64(s.Runs)
}

// Profile snapshots the profiling counters, or nil when the program was
// loaded without Profile.
func (p *Program) Profile() *ProfileSnapshot {
	if p.prof == nil {
		return nil
	}
	s := &ProfileSnapshot{
		Name:  p.name,
		Runs:  p.runs.Load(),
		Insns: p.instret.Load(),
		Nanos: p.prof.nanos.Load(),
		Hits:  make([]uint64, len(p.prof.hits)),
	}
	for i := range p.prof.hits {
		s.Hits[i] = p.prof.hits[i].Load()
	}
	return s
}

// profNow/profSince isolate the one wall-clock dependency; the simulator
// itself never reads real time, so profiling numbers are measurements
// about the process, not simulation state.
func profNow() time.Time { return time.Now() }

func profSince(t0 time.Time) uint64 { return uint64(time.Since(t0)) }

// AnnotatedDisasm renders the executed stream with per-instruction
// hotness: hit count, percentage of the hottest slot, and a bar — the
// syrup-policy disasm -profile output. Returns "" when not profiling.
func (p *Program) AnnotatedDisasm() string {
	prof := p.Profile()
	if prof == nil {
		return ""
	}
	var max uint64
	for _, h := range prof.Hits {
		if h > max {
			max = h
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; %s: %d runs, %d insns executed, %.1f ns/run\n",
		prof.Name, prof.Runs, prof.Insns, prof.NanosPerRun())
	for i := 0; i < len(p.insns); i++ {
		var next *Instruction
		if p.insns[i].IsLDDW() && i+1 < len(p.insns) {
			next = &p.insns[i+1]
		}
		hits := prof.Hits[i]
		pct := 0.0
		if max > 0 {
			pct = 100 * float64(hits) / float64(max)
		}
		bar := strings.Repeat("#", int(pct)/10)
		fmt.Fprintf(&b, "%10d %5.1f%% %-10s %4d: %s\n",
			hits, pct, bar, i, Disassemble(p.insns[i], next))
		if next != nil {
			i++
		}
	}
	return b.String()
}
