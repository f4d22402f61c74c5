package ebpf

// One decoded form and one walker. Load decodes the verified stream once
// into one op per instruction slot — operands, widths, the resolved jump
// target and, where the verifier's facts pin it, the memory window or map —
// and walk is the only loop in the package that executes instructions:
// Program.Run, RunState.Run and RunInterp all drive it. What an
// instruction means is not written here either: ALU ops and conditional
// jumps evaluate through alu and jumpTaken (isa.go), memory and helpers
// through rs.load, rs.store, rs.lookup and rs.call (interp.go).
//
// There are two decodings of the same stream. Run's consults the fact
// table the verifier built for exactly this stream and picks a pinned kind
// wherever a fact licenses one. The reference's (RunInterp, the
// differential oracle) consults nothing: every memory op goes through
// rs.mem's runtime region dispatch and bounds checks and every map lookup
// through rs.call's runtime handle and key resolution, so it can reach no
// pinned arm of the walker — a wrong fact, or a pinned kind chosen without
// one, shows up as a result that differs from the reference's.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// opKind selects the walker's arm for a slot.
type opKind uint8

const (
	// kBad is the zero kind: a slot that can only fault, an ALU-class
	// opcode that is no ALU operation.
	kBad   opKind = iota
	kALU          // dst = alu(code, wide, dst, operand)
	kLDDW         // dst = imm, the 64-bit constant or map handle; skips the high half
	kLoad         // dst = *(size *)(src + off), region resolved at run time
	kStore        // *(size *)(dst + off) = operand, or += under xadd; region resolved at run time
	kJa           // goto target
	kJmp          // if jumpTaken(code, dst, operand) goto target
	kCall         // helper imm, arguments resolved at run time
	kExit

	// Pinned kinds: chosen only by the decoding that reads Facts, each
	// trusting exactly the fact named. A fact at a slot holds on every
	// execution reaching it, so what the fact covers is not re-checked.
	kCtxData    // src is the ctx at a constant offset naming this field
	kCtxDataEnd // likewise
	kCtxHash
	kCtxPort
	kCtxQueue
	kStackLoad  // src is the frame at a constant offset: off is the window's start in rs.stack
	kStackStore // dst likewise (never xadd)
	// kPacketLoad trusts only that src is the packet at a constant offset
	// (off, from the packet's first byte). Packet length is runtime state,
	// so the bound compare stays.
	kPacketLoad
	// kMapLookup is map_lookup_elem with R1 a handle to the known map m
	// and R2 the frame at a constant offset: the key is rs.stack[off:off+size].
	kMapLookup

	kPinned = kCtxData // first pinned kind
)

// op is one decoded instruction slot. Fields a kind does not name are
// unused by it. The walker reads ops in place, never by value.
type op struct {
	kind   opKind
	dst    uint8
	src    uint8
	code   uint8 // ALU or jump operation, Op & 0xf0
	wide   bool  // ALU64 rather than ALU; JMP rather than JMP32
	reg    bool  // the operand is the src register, not imm
	xadd   bool
	size   int    // access width in bytes; key size for kMapLookup
	target int    // next pc when a jump is taken; past the pair for kLDDW
	off    int64  // instruction offset, or the pinned window (see the kinds)
	imm    uint64 // sign-extended immediate; LDDW constant; helper id
	m      *Map
}

var ctxFieldKind = map[int64]opKind{
	CtxOffData:    kCtxData,
	CtxOffDataEnd: kCtxDataEnd,
	CtxOffHash:    kCtxHash,
	CtxOffPort:    kCtxPort,
	CtxOffQueue:   kCtxQueue,
}

// decode translates every slot of p, the high half of an LDDW pair
// included: the walker never reaches that one in a verified program, and in
// an unverified one that jumps into it, it executes as the degenerate LDDW
// it decodes to. With facts it pins what they license; with nil — a
// unverified load, or the reference decoding — every slot keeps its generic
// kind.
func decode(p *Program, facts *Facts) []op {
	code := make([]op, len(p.insns))
	for i, ins := range p.insns {
		o := &code[i]
		*o = op{
			dst: ins.Dst, src: ins.Src, code: ins.Op & 0xf0,
			size: ins.LoadSize(), target: i + 1 + int(ins.Off),
			off: int64(ins.Off), imm: uint64(int64(ins.Imm)),
		}
		switch cls := ins.Class(); cls {
		case ClassALU, ClassALU64:
			o.wide, o.reg = cls == ClassALU64, ins.Op&SrcX != 0
			if _, ok := alu(o.code, o.wide, 0, 0); ok {
				o.kind = kALU
			}
		case ClassLD:
			o.kind, o.target = kLDDW, i+2
			switch {
			case ins.Src == PseudoMapFD:
				o.imm = ptrVal(regionMapHandle, uint64(ins.Imm))
			case i+1 < len(p.insns):
				o.imm = Imm64(ins, p.insns[i+1])
			default:
				// A trailing slot only unverified garbage can jump into: no high
				// half to load, and the target is out of range — the fault.
				o.kind = kJa
			}
		case ClassLDX:
			o.kind = kLoad
		case ClassST, ClassSTX:
			o.kind = kStore
			o.reg = cls == ClassSTX
			o.xadd = o.reg && ins.Op&0xe0 == ModeATOMIC
		case ClassJMP, ClassJMP32:
			// exit, call and ja take no operand, and the verifier checks
			// neither their X bit nor their src field: reg stays false so the
			// walker never indexes regs with it.
			switch o.code {
			case JmpExit:
				o.kind = kExit
			case JmpCall:
				o.kind = kCall
			case JmpA:
				o.kind = kJa
			default:
				o.kind = kJmp
				o.wide, o.reg = cls == ClassJMP, ins.Op&SrcX != 0
			}
		}
		if facts != nil {
			p.pin(o, i, facts)
		}
	}
	return code
}

// pin swaps a generic memory or lookup kind for the pinned one the facts
// on entry to slot i license, if any.
func (p *Program) pin(o *op, i int, facts *Facts) {
	switch o.kind {
	case kLoad:
		base := facts.Reg(i, o.src)
		if !base.OffKnown {
			return
		}
		switch base.Type {
		case FactCtx:
			// The verifier admitted this load, so the offset names a field.
			if k, ok := ctxFieldKind[base.Off+o.off]; ok {
				o.kind = k
			}
		case FactStack:
			if lo, ok := stackWindow(base, o.off, o.size); ok {
				o.kind, o.off = kStackLoad, lo
			}
		case FactPacket:
			o.kind, o.off = kPacketLoad, base.Off+o.off
		}
	case kStore:
		if lo, ok := stackWindow(facts.Reg(i, o.dst), o.off, o.size); ok && !o.xadd {
			o.kind, o.off = kStackStore, lo
		}
	case kCall:
		h := facts.Reg(i, R1)
		if int32(o.imm) != HelperMapLookup || h.Type != FactMapHandle || h.MapIdx < 0 || int(h.MapIdx) >= len(p.maps) {
			return
		}
		m := p.maps[h.MapIdx]
		ks := int(m.spec.KeySize)
		if lo, ok := stackWindow(facts.Reg(i, R2), 0, ks); ok {
			o.kind, o.m, o.off, o.size = kMapLookup, m, lo, ks
		}
	}
}

// stackWindow resolves an access through a verifier-proven stack base to
// the start of its [lo, lo+size) window within the frame.
func stackWindow(base RegFact, insOff int64, size int) (int64, bool) {
	if base.Type != FactStack || !base.OffKnown {
		return 0, false
	}
	lo := int64(StackSize) + base.Off + insOff
	if lo < 0 || lo+int64(size) > int64(StackSize) {
		return 0, false
	}
	return lo, true
}

// runStatePool lends run state to Program.Run, the entry any goroutine may
// call; a hook point owns a RunState instead and never comes here. A state
// is reused as it was left and reset lazily: the 512-byte stack and the
// registers stay dirty because the verifier rejects any read of an
// uninitialized register or stack byte (only unverified loads pay for a
// scrub on entry), and the env/ctx/region references from the last run
// are overwritten or truncated at reuse — they point at caller-owned
// contexts and long-lived map storage, so holding them across the gap
// pins nothing meaningful.
var runStatePool = sync.Pool{New: func() any { return new(runState) }}

// Run executes the program against ctx and returns R0's low 32 bits (the
// schedule() verdict) along with execution stats. Runtime errors indicate
// an exhausted tail-call budget, an injected fault or a verifier gap;
// hooks treat them as PASS after logging. Steady state performs zero heap allocations
// (errors are the cold path).
func (p *Program) Run(ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, st, err := p.RunRet64(ctx, env)
	return uint32(ret), st, err
}

// RunRet64 is Run but returns the full 64-bit R0; used by tests.
func (p *Program) RunRet64(ctx *Ctx, env *Env) (uint64, ExecStats, error) {
	rs := runStatePool.Get().(*runState)
	ret, err := p.exec(rs, ctx, env, false)
	st := rs.stats
	runStatePool.Put(rs)
	return ret, st, err
}

// RunInterp runs the reference: the same walker over the plain decoding of
// the same stream (no fact consulted) on fresh zeroed state. Differential
// tests use it as the oracle against Run.
func (p *Program) RunInterp(ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, st, err := p.runRef(ctx, env)
	return uint32(ret), st, err
}

func (p *Program) runRef(ctx *Ctx, env *Env) (uint64, ExecStats, error) {
	rs := new(runState)
	ret, err := p.exec(rs, ctx, env, true)
	return ret, rs.stats, err
}

// exec resets rs for one invocation and walks p. The caller owns rs —
// borrowed from the pool by Run, held for good by a RunState, fresh for the
// reference — and everything per-run (reset, accounting, instret/fault
// charging) happens here and in walk, so the entries cannot differ.
func (p *Program) exec(rs *runState, ctx *Ctx, env *Env, ref bool) (uint64, error) {
	if env == nil {
		env = &rs.noEnv
	}
	if pp := p.prof; pp != nil {
		// bpf_stats_enabled-style wall timing, charged to the entry
		// program across tail calls.
		t0 := profNow()
		defer func() { pp.nanos.Add(profSince(t0)) }()
	}
	rs.regions = rs.regions[:0]
	rs.stats = ExecStats{}
	if p.noVerify {
		// Unverified programs may read state they never wrote; give them
		// zeroed stack and registers whatever the state held before.
		rs.stack = [StackSize]byte{}
		rs.regs = [NumRegs]uint64{}
	}
	rs.env = env
	rs.ctx = ctx
	rs.regs[R1] = ptrVal(regionCtx, 0)
	rs.regs[R10] = ptrVal(regionStack, StackSize)
	return p.walk(rs, ref)
}

// walk executes p on an initialized rs, one segment per program of a
// tail-call chain. A segment's instruction count stays in a register and is
// folded into the stats, and charged to the segment's program with its run
// (and its fault — after tail calls that is the callee, not p), when the
// segment ends. One op is one source instruction, so the per-instruction
// profile is the loop's own bump of hits[pc], made before the op executes:
// a faulting instruction credits its own slot.
func (p *Program) walk(rs *runState, ref bool) (uint64, error) {
	regs := &rs.regs
	for prog := p; ; {
		code := prog.code
		if ref {
			code = decode(prog, nil)
		}
		var hits []atomic.Uint64
		if prog.prof != nil {
			hits = prog.prof.hits
		}
		var (
			tail        *Program // set by a successful tail call
			err         error
			pc, charged int
		)
	seg:
		for {
			// One unsigned compare covers both bounds: an unverified jump before
			// slot 0 is a fault like one past the end.
			if uint(pc) >= uint(len(code)) {
				err = fmt.Errorf("ebpf: %s: pc %d out of range", prog.name, pc)
				break
			}
			o := &code[pc]
			charged++
			if hits != nil {
				hits[pc].Add(1)
			}
			operand := o.imm
			if o.reg {
				operand = regs[o.src]
			}
			next := pc + 1
			var fault error
			switch o.kind {
			case kALU:
				d := &regs[o.dst]
				*d, _ = alu(o.code, o.wide, *d, operand)
			case kLDDW:
				regs[o.dst], next = o.imm, o.target
			case kJa:
				next = o.target
			case kJmp:
				if jumpTaken(o.code, regs[o.dst], operand, !o.wide) {
					next = o.target
				}
			case kExit:
				break seg
			case kCall:
				if tail, fault = rs.call(prog, int32(o.imm)); tail != nil {
					break seg
				}
			case kLoad:
				regs[o.dst], fault = rs.load(regs[o.src], o.off, o.size)
			case kStore:
				fault = rs.store(regs[o.dst], o.off, o.size, operand, o.xadd)

			case kCtxData:
				regs[o.dst] = ptrVal(regionPacket, 0)
			case kCtxDataEnd:
				regs[o.dst] = ptrVal(regionPacket, uint64(len(rs.ctx.Packet)))
			case kCtxHash:
				regs[o.dst] = uint64(rs.ctx.Hash)
			case kCtxPort:
				regs[o.dst] = uint64(rs.ctx.Port)
			case kCtxQueue:
				regs[o.dst] = uint64(rs.ctx.Queue)
			case kStackLoad:
				regs[o.dst] = loadSized(rs.stack[o.off:o.off+int64(o.size)], o.size)
			case kStackStore:
				storeSized(rs.stack[o.off:o.off+int64(o.size)], o.size, operand)
			case kPacketLoad:
				if pkt := rs.ctx.Packet; o.off < 0 || o.off+int64(o.size) > int64(len(pkt)) {
					fault = errPacketRange(o.off, o.size, len(pkt))
				} else {
					regs[o.dst] = loadSized(pkt[o.off:o.off+int64(o.size)], o.size)
				}
			case kMapLookup:
				rs.stats.Helpers++
				fault = rs.lookup(o.m, rs.stack[o.off:o.off+int64(o.size)])

			default:
				err = prog.badInsn(pc)
				break seg
			}
			if fault != nil {
				err = prog.insnErr(pc, fault)
				break
			}
			pc = next
		}
		rs.stats.Insns += charged
		prog.instret.Add(uint64(charged))
		prog.runs.Add(1)
		switch {
		case err != nil:
			prog.faults.Add(1)
			return 0, err
		case tail == nil:
			return regs[R0], nil
		}
		prog = tail
	}
}

// insnErr names the program and slot a runtime error came from.
func (p *Program) insnErr(i int, err error) error {
	return fmt.Errorf("ebpf: %s: insn %d: %w", p.name, i, err)
}

// badInsn is the fault of a slot that decoded to kBad: the ALU classes are
// the only ones with undefined ops. Kept out of line: inlined, its
// formatting temporaries grow walk's frame and cost map_policy ≈ 10 ns/op.
//
//go:noinline
func (p *Program) badInsn(i int) error {
	return fmt.Errorf("ebpf: bad alu op %#x", p.insns[i].Op)
}
