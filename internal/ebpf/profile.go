package ebpf

import (
	"fmt"
	"slices"
	"strings"
)

// Every program counts its instructions, with no switch: the walker bumps
// the hit counter of each op it executes (walk.go), the per-instruction
// counts of bpftool prog profile. A hit counter reads no clock, so the
// counts are exact, a function of the inputs alone, and sum to
// Stats().InsnsExecuted — the program's other count of the same slots.

// Hits returns a copy of the per-slot execution counts, one per
// instruction slot (the high half of an LDDW pair never executes and stays
// 0).
func (p *Program) Hits() []uint64 {
	hits := make([]uint64, len(p.code))
	for i := range p.code {
		hits[i] = p.code[i].hits
	}
	return hits
}

// AnnotatedDisasm renders the executed stream with per-instruction
// hotness: hit count, percentage of the hottest slot, and a bar — the
// syrup-policy disasm -profile output.
func (p *Program) AnnotatedDisasm() string {
	hits := p.Hits()
	most := slices.Max(hits)
	var b strings.Builder
	fmt.Fprintf(&b, "; %s: %d runs, %d insns executed, %.1f insns/run\n",
		p.name, p.runs, p.instret, p.MeanInsnsPerRun())
	for i := 0; i < len(p.insns); i++ {
		var next *Instruction
		if p.insns[i].IsLDDW() && i+1 < len(p.insns) {
			next = &p.insns[i+1]
		}
		pct := 0.0
		if most > 0 {
			pct = 100 * float64(hits[i]) / float64(most)
		}
		bar := strings.Repeat("#", int(pct)/10)
		fmt.Fprintf(&b, "%10d %5.1f%% %-10s %4d: %s\n",
			hits[i], pct, bar, i, Disassemble(p.insns[i], next))
		if next != nil {
			i++
		}
	}
	return b.String()
}
