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

	// code is the decoded form Run walks (walk.go): one op per instruction
	// slot, pinned where facts license it. Every loaded program has one.
	code []op
	// noVerify records that verification was skipped, so exec knows it
	// must scrub reused run state (a verified program can never read
	// registers or stack bytes it didn't write).
	noVerify bool

	// facts is the verifier's per-PC fact table for insns; nil for
	// unverified loads.
	facts *Facts

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
	// per run segment and one per instruction.
	prof *profData
}

// LoadOptions configures program loading.
type LoadOptions struct {
	// MapTable resolves LDDW pseudo-map-fd immediates. Required if the
	// program references maps.
	MapTable *MapTable
	// Budget overrides DefaultVerifierBudget when > 0.
	Budget int
	// noVerify skips verification. Only this package's tests set it — no
	// other package can, so every program a hook runs was verified: it is
	// how the runtime-fault paths a verified program cannot reach get
	// exercised.
	noVerify bool
	// Profile enables bpf_stats_enabled-style accounting for this load:
	// run count, cumulative wall ns, and per-instruction hit counters
	// (profile.go), bumped by the same walker over the same decoding.
	Profile bool
}

// Load is the one pipeline every program takes: resolve map references,
// verify, decode. Nothing rewrites the stream after the verifier admits
// it, so the verified stream is the executed stream. Unverified test
// programs skip straight to decoding, with no facts to pin anything.
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

	p.noVerify = opts.noVerify
	if !opts.noVerify {
		budget := opts.Budget
		if budget <= 0 {
			budget = DefaultVerifierBudget
		}
		facts, err := verify(p, budget)
		if err != nil {
			return nil, fmt.Errorf("ebpf: %s: verifier: %w", name, err)
		}
		p.facts = facts
	}
	if opts.Profile {
		p.prof = newProfData(len(p.insns))
	}
	p.code = decode(p, p.facts)
	return p, nil
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

// Disassemble renders the loaded (map-resolved) instruction stream.
func (p *Program) Disassemble() string { return DisassembleProgram(p.insns) }
