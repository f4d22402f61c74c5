package ebpf

import (
	"fmt"
	"sync/atomic"
)

// MaxInsns caps program length, mirroring the kernel's per-program limit
// for unprivileged loads.
const MaxInsns = 4096

// DefaultVerifierBudget is the number of simulated instructions the
// verifier will process before declaring a program possibly unbounded
// (the kernel's 1M-instruction analysis limit, §4.3 of the paper).
const DefaultVerifierBudget = 1_000_000

// MaxTailCalls bounds tail-call chains at runtime, as in the kernel.
const MaxTailCalls = 33

// Program is a loaded, verified program. Programs are immutable after Load
// and safe for concurrent Run calls (each run gets its own stack).
type Program struct {
	name  string
	insns []Instruction
	// maps holds the maps referenced by LDDW pseudo instructions; after
	// loading, those instructions' Imm fields index this slice.
	maps []*Map

	// code is the threaded-code form Run executes: one pre-decoded op
	// closure per instruction slot. Every loaded program has one.
	code []opFunc
	// noVerify records that verification was skipped, so the compiled
	// dispatch path knows it must scrub the pooled run state (a verified
	// program can never read registers or stack bytes it didn't write).
	noVerify bool

	// facts is the verifier's per-PC fact table for insns (the stream
	// actually executed). Refreshed by the post-optimization re-verify, so
	// it always describes the current stream; nil for NoVerify loads.
	facts *Facts
	// origInsns is the verified pre-optimization stream, set only when the
	// optimizer rewrote insns; optRep is the pass report of an optimizer
	// run that neither bailed out nor was rejected by the re-verifier;
	// optRejected marks the latter.
	origInsns   []Instruction
	optRep      *OptReport
	optRejected bool

	// Accounting for Table 2.
	runs    atomic.Uint64
	instret atomic.Uint64
	// faults counts runs of this program that ended in a runtime error,
	// charged to the program whose instruction faulted (after tail calls,
	// that is the callee, not the entry program) — the per-tenant signal
	// syrupd's quarantine watchdog reads for dispatcher slots.
	faults atomic.Uint64

	// prng is the state of the fallback get_prandom_u32 stream
	// (fallbackPrandom); zero until the first draw.
	prng atomic.Uint32

	// prof holds the opt-in per-instruction profile (profile.go); nil —
	// the common case — means no profiling overhead beyond one nil check
	// per run segment.
	prof *profData
}

// LoadOptions configures program loading.
type LoadOptions struct {
	// MapTable resolves LDDW pseudo-map-fd immediates. Required if the
	// program references maps.
	MapTable *MapTable
	// Budget overrides DefaultVerifierBudget when > 0.
	Budget int
	// NoVerify skips verification. Only syrupd's own trusted dispatcher
	// may use it; user policies must always be verified.
	NoVerify bool
	// Profile enables bpf_stats_enabled-style accounting for this load:
	// run count, cumulative wall ns, and per-instruction hit counters
	// (profile.go), as a decorator over the same compiled code.
	Profile bool
}

// Load is the one pipeline every program takes: resolve map references,
// verify, optimize, re-verify, compile (plus the profile decorator when
// asked). NoVerify programs skip straight to compilation.
func Load(name string, insns []Instruction, opts LoadOptions) (*Program, error) {
	if len(insns) == 0 {
		return nil, fmt.Errorf("ebpf: %s: empty program", name)
	}
	if len(insns) > MaxInsns {
		return nil, fmt.Errorf("ebpf: %s: %d instructions exceeds limit %d", name, len(insns), MaxInsns)
	}
	p := &Program{name: name, insns: make([]Instruction, len(insns))}
	copy(p.insns, insns)

	// Resolve LDDW map fds to indices into p.maps.
	for i := 0; i < len(p.insns); i++ {
		ins := &p.insns[i]
		if !ins.IsLDDW() {
			continue
		}
		if i+1 >= len(p.insns) || p.insns[i+1].Op != 0 {
			return nil, fmt.Errorf("ebpf: %s: insn %d: truncated LDDW pair", name, i)
		}
		if ins.Src == PseudoMapFD {
			if opts.MapTable == nil {
				return nil, fmt.Errorf("ebpf: %s: insn %d: map reference without map table", name, i)
			}
			m := opts.MapTable.Get(ins.Imm)
			if m == nil {
				return nil, fmt.Errorf("ebpf: %s: insn %d: bad map fd %d", name, i, ins.Imm)
			}
			ins.Imm = int32(len(p.maps))
			p.maps = append(p.maps, m)
		}
		i++ // skip the high half
	}

	p.noVerify = opts.NoVerify
	if !opts.NoVerify {
		budget := opts.Budget
		if budget <= 0 {
			budget = DefaultVerifierBudget
		}
		facts, err := verify(p, budget)
		if err != nil {
			return nil, fmt.Errorf("ebpf: %s: verifier: %w", name, err)
		}
		p.facts = facts
		p.optimize(budget)
	}
	if opts.Profile {
		p.prof = newProfData(len(p.insns))
	}
	p.code = compile(p)
	return p, nil
}

// optimize runs the fact-driven pass pipeline over the freshly verified
// stream and, following MOAT's check-don't-trust rule, re-verifies the
// result before adopting it. Any failure — a pass bailing out, or the
// re-verifier rejecting the rewritten stream — leaves the program on the
// verified original with its original fact table, so the optimizer can
// never make a load fail and the compiler always has facts for the stream
// it is handed.
func (p *Program) optimize(budget int) {
	optimized, rep, err := Optimize(p.insns, p.facts)
	if err != nil {
		return
	}
	changed := rep.Removed() != 0
	for _, pass := range rep.Passes {
		changed = changed || pass.Rewritten > 0
	}
	if !changed {
		// Nothing rewritten: the stream (and its fact table) stand as
		// verified.
		p.optRep = rep
		return
	}
	cand := &Program{name: p.name, insns: optimized, maps: p.maps}
	cfacts, err := verify(cand, budget)
	if err != nil {
		p.optRejected = true
		return
	}
	p.origInsns = p.insns
	p.insns = optimized
	p.facts = cfacts
	p.optRep = rep
}

// MustLoad is Load that panics on error, for static trusted programs.
func MustLoad(name string, insns []Instruction, opts LoadOptions) *Program {
	p, err := Load(name, insns, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// Len reports the instruction count (LDDW counts as two, matching how the
// paper's Table 2 counts instructions).
func (p *Program) Len() int { return len(p.insns) }

// Maps returns the maps this program references, in LDDW order.
func (p *Program) Maps() []*Map { return p.maps }

// Stats reports cumulative run accounting for Table 2.
type Stats struct {
	Runs          uint64
	InsnsExecuted uint64
	// Faults counts runs that ended in a runtime error at one of this
	// program's instructions.
	Faults uint64
}

// Stats returns cumulative accounting.
func (p *Program) Stats() Stats {
	return Stats{Runs: p.runs.Load(), InsnsExecuted: p.instret.Load(), Faults: p.faults.Load()}
}

// MeanInsnsPerRun reports average executed instructions per invocation.
func (p *Program) MeanInsnsPerRun() float64 {
	r := p.runs.Load()
	if r == 0 {
		return 0
	}
	return float64(p.instret.Load()) / float64(r)
}

// Disassemble renders the loaded (map-resolved) instruction stream — the
// optimized form when the optimizer ran.
func (p *Program) Disassemble() string { return DisassembleProgram(p.insns) }

// Optimized reports whether the middle-end rewrote this program.
func (p *Program) Optimized() bool { return p.origInsns != nil }

// OptReport returns the optimizer's pass report, or nil when a pass bailed
// out or the re-verifier rejected the rewritten stream.
func (p *Program) OptReport() *OptReport { return p.optRep }

// OptRejected reports whether the re-verifier rejected the optimizer's
// rewrite, leaving the program on its verified original. With Optimized
// and OptReport it completes the load outcome: rewritten (Optimized),
// left unchanged (a report, not Optimized), rejected, or — no report and
// not rejected — a pass bailed out (or the load skipped verification).
func (p *Program) OptRejected() bool { return p.optRejected }

// verified returns the stream the verifier first admitted: the
// pre-optimization one when the optimizer rewrote the program, else insns.
func (p *Program) verified() []Instruction {
	if p.origInsns != nil {
		return p.origInsns
	}
	return p.insns
}

// OrigLen reports the pre-optimization instruction count (equal to Len()
// when the optimizer did not change the program).
func (p *Program) OrigLen() int { return len(p.verified()) }

// DisassembleOrig renders the pre-optimization stream.
func (p *Program) DisassembleOrig() string { return DisassembleProgram(p.verified()) }

// Facts returns the verifier's per-PC fact table for the executed stream
// (nil for NoVerify loads). The table always matches the current insns:
// after optimization it is the re-verifier's table for the rewritten
// stream, never the stale pre-optimization one.
func (p *Program) Facts() *Facts { return p.facts }
