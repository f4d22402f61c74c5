package ebpf

import (
	"cmp"
	"fmt"
	"slices"
)

// MaxInsns caps program length, mirroring the kernel's per-program limit
// for unprivileged loads.
const MaxInsns = 4096

// DefaultVerifierBudget is the number of simulated instructions the
// verifier will process before it rejects a program as having too many
// paths (the kernel's 1M-instruction analysis limit, §4.3 of the paper).
const DefaultVerifierBudget = 1_000_000

// MaxTailCalls bounds tail-call chains at runtime, as in the kernel.
const MaxTailCalls = 33

// Program is a verified program bound to one host's maps. Its code is
// immutable after Bind; its accounting, fallback PRNG and Run's state are
// plain fields, because a program belongs to the one host that bound it
// (DESIGN.md "One owner per host").
type Program struct {
	name  string
	insns []Instruction
	// maps holds the program's maps, each once; pseudo-map LDDW
	// instructions' Imm fields index this slice.
	maps []*Map

	// code is the decoded form Run walks (walk.go): one op per instruction
	// slot, each counting its own hits. Every loaded program has one.
	code []op
	// noVerify records that verification was skipped, so exec knows it
	// must scrub reused run state (a verified program can never read
	// registers or stack bytes it didn't write).
	noVerify bool

	// Accounting for Table 2.
	runs    uint64
	instret uint64
	// faults counts runs of this program that ended in a runtime error,
	// charged to the program whose instruction faulted (after tail calls,
	// that is the callee, not the entry program) — the per-tenant signal
	// syrupd's quarantine watchdog reads for dispatcher slots.
	faults uint64

	// prng is the state of the fallback get_prandom_u32 stream
	// (fallbackPrandom); zero until the first draw.
	prng uint32

	// rs is the one run state Run executes on, whichever hook point runs
	// the program; a tail call continues on its entry program's.
	rs runState
}

// LoadOptions configures Load.
type LoadOptions struct {
	// MapTable resolves LDDW pseudo-map-fd immediates.
	MapTable *MapTable
	budget   int // overrides DefaultVerifierBudget; only this package's tests set it
}

// Verified is a program the verifier admitted: a copy of its file's
// instructions and map specs, and no map. Verification reads only map
// specs (type, key size, value size), so a Verified belongs to no host: it
// is immutable, and any number of hosts bind the same one.
type Verified struct {
	name        string
	maps        []MapSpec
	insns       []Instruction
	sourceLines int
	noVerify    bool // verification was skipped (verifyFile)
}

// Verify checks f's map declarations, then f's program against them (its
// pseudo-map LDDW immediates index them, as Assemble emits them), and
// reads nothing else: the pure half of loading.
func Verify(name string, f *AsmFile) (*Verified, error) {
	return verifyFile(name, f, DefaultVerifierBudget)
}

// verifyFile is Verify with the analysis budget given. A budget of 0 skips
// the verifier but not the structural checks: how this package's tests
// reach the runtime faults a verified program cannot (export_test.go).
func verifyFile(name string, f *AsmFile, budget int) (*Verified, error) {
	insns := f.Insns
	if len(insns) == 0 {
		return nil, fmt.Errorf("ebpf: %s: empty program", name)
	}
	if len(insns) > MaxInsns {
		return nil, fmt.Errorf("ebpf: %s: %d instructions exceeds limit %d", name, len(insns), MaxInsns)
	}
	for i, spec := range f.Maps {
		if e := spec.check(); e != nil {
			if i < len(f.mapLines) {
				e.line = f.mapLines[i]
			}
			return nil, fmt.Errorf("ebpf: %s: %w", name, e)
		}
	}
	for i := 0; i < len(insns); i++ {
		if !insns[i].IsLDDW() {
			continue
		}
		if i+1 >= len(insns) || insns[i+1].Op != 0 {
			return nil, fmt.Errorf("ebpf: %s: %w", name, reject(i, "truncated LDDW pair"))
		}
		if ref := insns[i].Imm; insns[i].Src == PseudoMapFD && (ref < 0 || int(ref) >= len(f.Maps)) {
			return nil, fmt.Errorf("ebpf: %s: %w", name, reject(i, "bad map reference %d", ref))
		}
		i++ // skip the high half
	}
	if budget > 0 {
		if err := verify(insns, f.Maps, budget); err != nil {
			if e := err.(*posError); e.slot < len(f.lines) {
				e.line = f.lines[e.slot]
			}
			return nil, fmt.Errorf("ebpf: %s: verifier: %w", name, err)
		}
	}
	return &Verified{name, slices.Clone(f.Maps), slices.Clone(insns), f.SourceLines, budget <= 0}, nil
}

// SourceLines is the LoC of the source v was assembled from (Table 2's
// LoC column).
func (v *Verified) SourceLines() int { return v.sourceLines }

// Bind instantiates v on one host: each declared map is existing's map of
// that name (see bindMap) or a new one. It returns a fresh program,
// decoded for its own maps, and those maps by name. Verify checked every
// spec, so only an existing map can refuse.
func (v *Verified) Bind(existing map[string]*Map) (*Program, map[string]*Map, error) {
	maps := make([]*Map, len(v.maps))
	byName := make(map[string]*Map, len(v.maps))
	for i, spec := range v.maps {
		m, err := bindMap(spec, existing)
		if err != nil {
			return nil, nil, err
		}
		maps[i], byName[spec.Name] = m, m
	}
	return v.bind(maps), byName, nil
}

// bindMap is existing's map named by spec, whose type, key size and value
// size must match it, or a new map.
func bindMap(spec MapSpec, existing map[string]*Map) (*Map, error) {
	m, ok := existing[spec.Name]
	if !ok {
		return NewMap(spec)
	}
	if m.spec.Type != spec.Type || m.spec.KeySize != spec.KeySize || m.spec.ValueSize != spec.ValueSize {
		return nil, fmt.Errorf("ebpf: map %q redeclared with incompatible spec", spec.Name)
	}
	return m, nil
}

// bind decodes a copy of v for maps, v's declared maps in order.
func (v *Verified) bind(maps []*Map) *Program {
	p := &Program{name: v.name, insns: slices.Clone(v.insns), maps: maps, noVerify: v.noVerify}
	p.code = decode(p)
	return p
}

// Load verifies and binds a program whose pseudo-map LDDW immediates are
// fds in opts.MapTable: each fd becomes the index of its map, which the
// program holds once, and the program takes Verify's path.
func Load(name string, insns []Instruction, opts LoadOptions) (*Program, error) {
	f := &AsmFile{Insns: slices.Clone(insns)}
	var maps []*Map
	for i := 0; i < len(f.Insns); i++ {
		ins := &f.Insns[i]
		if !ins.IsLDDW() {
			continue
		}
		if ins.Src == PseudoMapFD {
			m := opts.MapTable.Get(ins.Imm)
			if m == nil {
				return nil, fmt.Errorf("ebpf: %s: %w", name, reject(i, "bad map fd %d", ins.Imm))
			}
			if ins.Imm = int32(slices.Index(maps, m)); ins.Imm < 0 {
				ins.Imm, maps, f.Maps = int32(len(maps)), append(maps, m), append(f.Maps, m.spec)
			}
		}
		i++ // skip the high half, which verifyFile checks
	}
	v, err := verifyFile(name, f, cmp.Or(opts.budget, DefaultVerifierBudget))
	if err != nil {
		return nil, err
	}
	return v.bind(maps), nil
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
	return Stats{Runs: p.runs, InsnsExecuted: p.instret, Faults: p.faults}
}

// MeanInsnsPerRun reports average executed instructions per invocation.
func (p *Program) MeanInsnsPerRun() float64 {
	if p.runs == 0 {
		return 0
	}
	return float64(p.instret) / float64(p.runs)
}
