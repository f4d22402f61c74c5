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

// AnnotatedDisasm renders the program as TextSource does, under a summary
// comment, with each instruction's hit count, its percentage of the
// hottest slot's and a bar in a trailing comment: the syrup-policy disasm
// -profile output, which re-assembles to the same stream.
func (p *Program) AnnotatedDisasm() string {
	hits := p.Hits()
	most := slices.Max(hits)
	summary := fmt.Sprintf("; %s: %d runs, %d insns executed, %.1f insns/run\n",
		p.name, p.runs, p.instret, p.MeanInsnsPerRun())
	return summary + p.text(func(pc int) string {
		pct := 0.0
		if most > 0 {
			pct = 100 * float64(hits[pc]) / float64(most)
		}
		return strings.TrimRight(fmt.Sprintf("%10d %5.1f%% %s", hits[pc], pct, strings.Repeat("#", int(pct)/10)), " ")
	})
}
