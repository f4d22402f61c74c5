package ebpf

// Threaded-code compilation of verified programs. Load translates the
// instruction stream into a slice of pre-decoded op closures, one per
// instruction slot: immediates, offsets, register indices, map handles,
// and jump targets are resolved once at load time, so the per-packet run
// path does no operand decoding at all. What an instruction means is not
// written here: ALU ops and conditional jumps evaluate through alu and
// jumpTaken (isa.go), and the generic load, store and map lookup through
// rs.load, rs.store and rs.lookup (interp.go) — the bodies the verifier
// folds with and the reference interpreter (RunInterp, the differential
// oracle) executes. This file owns operand pre-decoding, jump-target
// resolution, error parking and the fact-specialized forms; ExecStats
// accounting, instret/runs charging across tail calls and error strings
// are bit-identical to the interpreter's.
//
// There is one closure tier. Where the verifier's fact table pins a load,
// store or map-lookup operand (p.facts is nil only for NoVerify loads),
// the closure is specialized to a direct slice access; where it does not,
// the generic form resolves the region at run time. The table is the one
// the verifier built for exactly this stream: nothing rewrites a program
// between verify and compile.

import (
	"fmt"
	"sync"
)

// opFunc executes one pre-decoded instruction and returns the next pc, or
// one of the sentinels below. Errors are parked in rs.err rather than
// returned so the dispatch loop's hot path checks a single integer.
type opFunc func(rs *runState) int

// Sentinels sit far below any reachable jump target (a conditional offset
// is an int16, so even hostile NoVerify programs cannot produce a pc near
// these), letting the dispatcher distinguish them from a plain negative pc,
// which is an out-of-range fault like any other.
const (
	opExit = -1 << 30   // program returned; R0 holds the result
	opTail = -1<<30 + 1 // successful tail call; rs.tail holds the target
	opErr  = -1<<30 + 2 // runtime error; rs.err holds it
)

// runStatePool lends run state to Program.Run, the entry any goroutine may
// call; a hook point owns a RunState instead and never comes here. A state
// is reused as it was left and reset lazily: the 512-byte stack and the
// registers stay dirty because the verifier rejects any read of an
// uninitialized register or stack byte (only NoVerify loads pay for a
// scrub on entry), and the env/ctx/region references from the last run
// are overwritten or truncated at reuse — they point at caller-owned
// contexts and long-lived map storage, so holding them across the gap
// pins nothing meaningful.
var runStatePool = sync.Pool{New: func() any { return new(runState) }}

// runCompiled is the fast dispatch path: a pooled runState driven through
// the pre-decoded closure stream. Steady state performs zero heap
// allocations (errors are the cold path).
func (p *Program) runCompiled(ctx *Ctx, env *Env) (uint64, ExecStats, error) {
	rs := runStatePool.Get().(*runState)
	ret, err := p.execCompiled(rs, ctx, env)
	st := rs.stats
	runStatePool.Put(rs)
	return ret, st, err
}

// execCompiled resets rs for one invocation and drives the threaded code.
// The caller owns rs — borrowed from the pool by runCompiled, held for good
// by a RunState — and everything per-run (reset, accounting, instret/fault
// charging) happens here, so the two entries cannot differ.
func (p *Program) execCompiled(rs *runState, ctx *Ctx, env *Env) (uint64, error) {
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
	rs.extra = 0
	if p.noVerify {
		// Unverified programs may read state they never wrote; give them
		// the same zeroed stack and registers the interpreter starts with.
		rs.stack = [StackSize]byte{}
		rs.regs = [NumRegs]uint64{}
	}
	rs.env = env
	rs.ctx = ctx
	rs.regs[R1] = ptrVal(regionCtx, 0)
	rs.regs[R10] = ptrVal(regionStack, StackSize)

	prog := p // program whose instret we charge for the current segment
	code := p.code
	charged := 0
	pc := 0
	for {
		// The hot loop: one unsigned compare covers both bounds (negative
		// pcs, sentinels included, wrap past len). Instruction counting
		// stays in a register — plus rs.extra for fused superinstructions —
		// and is folded into the stats at each flush.
		for uint(pc) < uint(len(code)) {
			charged++
			pc = code[pc](rs)
		}
		seg := charged + rs.extra
		rs.extra = 0
		rs.stats.Insns += seg
		prog.instret.Add(uint64(seg))
		prog.runs.Add(1)
		switch pc {
		case opExit:
			return rs.regs[R0], nil
		case opTail:
			charged = 0
			target := rs.tail
			rs.tail = nil
			prog = target
			code = target.code
			pc = 0
		case opErr:
			// Charge the fault to the segment's program — after tail calls
			// that is the callee, matching the interpreter's attribution.
			prog.faults.Add(1)
			err := rs.err
			rs.err = nil
			return 0, err
		default:
			prog.faults.Add(1)
			return 0, fmt.Errorf("ebpf: %s: pc %d out of range", prog.name, pc)
		}
	}
}

// compile translates every instruction slot into its pre-decoded closure.
// Every slot compiles — including the high half of an LDDW pair, which the
// interpreter also treats as an executable (degenerate LDDW) instruction
// when jumped into by an unverified program. A peephole pass then fuses
// adjacent instructions into single superinstruction closures
// (jit_fuse.go); a sequence never fuses when a later slot of it is a jump
// target, and stats stay exact via rs.extra. The fused-over slots keep
// their standalone closures — sequential flow skips them, and nothing else
// can reach them. NoVerify programs compile unfused: their jumps may land
// anywhere. Profiling, when asked for, decorates the finished code.
func compile(p *Program) []opFunc {
	code := make([]opFunc, len(p.insns))
	for i := range p.insns {
		code[i] = p.compileInsn(i)
	}
	if !p.noVerify {
		targets := jumpTargets(p.insns)
		for i := 0; i+1 < len(p.insns); i++ {
			if targets[i+1] {
				continue
			}
			if f := p.compileFused(i, targets); f != nil {
				code[i] = f
			}
		}
	}
	if p.prof != nil {
		profWrapAll(p.prof, code)
	}
	return code
}

// jumpTargets marks every slot some jump can land on. Fall-through is not
// a jump: sequential flow into a fused pair enters at the pair's head.
func jumpTargets(insns []Instruction) []bool {
	t := make([]bool, len(insns)+1)
	for i, ins := range insns {
		cls := ins.Class()
		if cls != ClassJMP && cls != ClassJMP32 {
			continue
		}
		op := ins.Op & 0xf0
		if op == JmpExit || op == JmpCall {
			continue
		}
		if tgt := i + 1 + int(ins.Off); tgt >= 0 && tgt < len(t) {
			t[tgt] = true
		}
	}
	return t
}

func (p *Program) compileInsn(i int) opFunc {
	ins := p.insns[i]
	switch ins.Class() {
	case ClassALU64, ClassALU:
		return compileALU(ins, i+1)
	case ClassLD:
		return p.compileLDDW(i, ins)
	case ClassLDX:
		return p.compileLoad(i, ins)
	case ClassST, ClassSTX:
		return p.compileStore(i, ins)
	case ClassJMP, ClassJMP32:
		return p.compileJump(i, ins)
	}
	// Unreachable: Class() is Op&0x07 and all eight values are handled
	// above. Kept for defense in depth, with the interpreter's error.
	return parkErr(fmt.Errorf("ebpf: %s: insn %d: bad class %#x", p.name, i, ins.Op))
}

// parkErr is the closure of a slot that can only fault, with err as is.
func parkErr(err error) opFunc {
	return func(rs *runState) int {
		rs.err = err
		return opErr
	}
}

// fault parks a runtime error raised at slot i, wrapped as the interpreter
// wraps it, and returns the sentinel the dispatch loop stops on.
func (p *Program) fault(rs *runState, i int, err error) int {
	rs.err = p.insnErr(i, err)
	return opErr
}

func (p *Program) compileLDDW(i int, ins Instruction) opFunc {
	dst := ins.Dst
	next := i + 2
	if ins.Src == PseudoMapFD {
		v := ptrVal(regionMapHandle, uint64(ins.Imm))
		return func(rs *runState) int {
			rs.regs[dst] = v
			return next
		}
	}
	if i+1 >= len(p.insns) {
		// A truncated pair only slips past Load when NoVerify garbage jumps
		// into a trailing degenerate slot: nothing to load, and next is out
		// of range, which is the fault the interpreter reports too.
		return func(rs *runState) int { return next }
	}
	v := Imm64(ins, p.insns[i+1])
	return func(rs *runState) int {
		rs.regs[dst] = v
		return next
	}
}

// compileALU pre-decodes the operands and evaluates through alu, aimed at
// next. The 64-bit moves keep direct closures: they open and close nearly
// every policy and have nothing to compute.
func compileALU(ins Instruction, next int) opFunc {
	op := ins.Op & 0xf0
	is64 := ins.Class() == ClassALU64
	dst, src := ins.Dst, ins.Src
	useReg := ins.Op&SrcX != 0
	k := uint64(int64(ins.Imm))
	if _, ok := alu(op, is64, 0, 0); !ok {
		// The interpreter's error for this slot, unwrapped like its own.
		return parkErr(fmt.Errorf("ebpf: bad alu op %#x", ins.Op))
	}
	if op == ALUMov && is64 {
		if useReg {
			return func(rs *runState) int {
				rs.regs[dst] = rs.regs[src]
				return next
			}
		}
		return func(rs *runState) int {
			rs.regs[dst] = k
			return next
		}
	}
	return func(rs *runState) int {
		s := k
		if useReg {
			s = rs.regs[src]
		}
		rs.regs[dst], _ = alu(op, is64, rs.regs[dst], s)
		return next
	}
}

// regFact returns what the verifier proved about reg on entry to slot i,
// or no fact (FactNone) for a NoVerify load or an unreachable slot.
func (p *Program) regFact(i int, reg uint8) RegFact {
	if p.facts == nil {
		return RegFact{MapIdx: -1}
	}
	return p.facts.Reg(i, reg)
}

// stackWindow resolves a store/load through a verifier-proven stack base
// to an absolute [off, off+size) window within the frame.
func stackWindow(base RegFact, insOff int16, size int) (int, bool) {
	if base.Type != FactStack || !base.OffKnown {
		return 0, false
	}
	abs := int64(StackSize) + base.Off + int64(insOff)
	if abs < 0 || abs+int64(size) > int64(StackSize) {
		return 0, false
	}
	return int(abs), true
}

func (p *Program) compileLoad(i int, ins Instruction) opFunc {
	if f := p.specLoad(i, ins); f != nil {
		return f
	}
	dst, src := ins.Dst, ins.Src
	off := int64(ins.Off)
	size := ins.LoadSize()
	next := i + 1
	return func(rs *runState) int {
		v, err := rs.load(rs.regs[src], off, size)
		if err != nil {
			return p.fault(rs, i, err)
		}
		rs.regs[dst] = v
		return next
	}
}

// specLoad emits a specialized closure for a load whose base register the
// verifier pinned at this slot — replacing rs.mem's runtime region
// dispatch with a direct slice access (stack, ctx field) or a single
// precomputed bounds compare (packet) — or nil when no fact applies.
func (p *Program) specLoad(i int, ins Instruction) opFunc {
	dst := ins.Dst
	size := ins.LoadSize()
	next := i + 1
	base := p.regFact(i, ins.Src)
	if !base.OffKnown {
		return nil
	}
	switch base.Type {
	case FactCtx:
		// The verifier admitted this load, so the offset is one of the
		// context fields; resolve the switch at compile time.
		switch base.Off + int64(ins.Off) {
		case CtxOffData:
			return func(rs *runState) int {
				rs.regs[dst] = ptrVal(regionPacket, 0)
				return next
			}
		case CtxOffDataEnd:
			return func(rs *runState) int {
				rs.regs[dst] = ptrVal(regionPacket, uint64(len(rs.ctx.Packet)))
				return next
			}
		case CtxOffHash:
			return func(rs *runState) int {
				rs.regs[dst] = uint64(rs.ctx.Hash)
				return next
			}
		case CtxOffPort:
			return func(rs *runState) int {
				rs.regs[dst] = uint64(rs.ctx.Port)
				return next
			}
		case CtxOffQueue:
			return func(rs *runState) int {
				rs.regs[dst] = uint64(rs.ctx.Queue)
				return next
			}
		}
	case FactStack:
		if lo, ok := stackWindow(base, ins.Off, size); ok {
			return func(rs *runState) int {
				rs.regs[dst] = loadSized(rs.stack[lo:lo+size], size)
				return next
			}
		}
	case FactPacket:
		// Packet length is runtime state, so the bounds compare stays — but
		// as one precomputed comparison instead of rs.mem's region walk.
		po := base.Off + int64(ins.Off)
		return func(rs *runState) int {
			if po < 0 || int(po)+size > len(rs.ctx.Packet) {
				return p.fault(rs, i, fmt.Errorf("packet access out of range: off %d size %d len %d", po, size, len(rs.ctx.Packet)))
			}
			rs.regs[dst] = loadSized(rs.ctx.Packet[po:int(po)+size], size)
			return next
		}
	}
	return nil
}

func (p *Program) compileStore(i int, ins Instruction) opFunc {
	dst, src := ins.Dst, ins.Src
	off := int64(ins.Off)
	size := ins.LoadSize()
	isSTX := ins.Class() == ClassSTX
	xadd := isSTX && ins.Op&0xe0 == ModeATOMIC
	k := uint64(int64(ins.Imm))
	next := i + 1
	if lo, ok := stackWindow(p.regFact(i, dst), ins.Off, size); ok && !xadd {
		// Verifier-pinned stack base: store straight into the window.
		if isSTX {
			return func(rs *runState) int {
				storeSized(rs.stack[lo:lo+size], size, rs.regs[src])
				return next
			}
		}
		return func(rs *runState) int {
			storeSized(rs.stack[lo:lo+size], size, k)
			return next
		}
	}
	return func(rs *runState) int {
		v := k
		if isSTX {
			v = rs.regs[src]
		}
		if err := rs.store(rs.regs[dst], off, size, v, xadd); err != nil {
			return p.fault(rs, i, err)
		}
		return next
	}
}

// compileCallCore returns the helper-invocation core for the call at slot
// i: when facts pin the handle to a known map and the key to a known stack
// window (the dominant shape on every policy's hot path) a closure that
// slices the key itself and goes straight to rs.lookup, else a thin
// wrapper over rs.call, which resolves both at run time first.
func (p *Program) compileCallCore(i int) func(rs *runState) (*Program, error) {
	ins := p.insns[i]
	if h := p.regFact(i, R1); ins.Imm == HelperMapLookup &&
		h.Type == FactMapHandle && h.MapIdx >= 0 && int(h.MapIdx) < len(p.maps) {
		m := p.maps[h.MapIdx]
		ks := int(m.spec.KeySize)
		if lo, ok := stackWindow(p.regFact(i, R2), 0, ks); ok {
			return func(rs *runState) (*Program, error) {
				rs.stats.Helpers++
				return nil, rs.lookup(m, rs.stack[lo:lo+ks])
			}
		}
	}
	return func(rs *runState) (*Program, error) { return rs.call(p, ins) }
}

// compileJump pre-resolves both branch targets; the conditional forms
// decide through jumpTaken.
func (p *Program) compileJump(i int, ins Instruction) opFunc {
	op := ins.Op & 0xf0
	dst, src := ins.Dst, ins.Src
	useReg := ins.Op&SrcX != 0
	is32 := ins.Class() == ClassJMP32
	k := uint64(int64(ins.Imm))
	target := i + 1 + int(ins.Off)
	fall := i + 1

	switch op {
	case JmpExit:
		return func(rs *runState) int { return opExit }
	case JmpCall:
		core := p.compileCallCore(i)
		return func(rs *runState) int {
			next, err := core(rs)
			if err != nil {
				return p.fault(rs, i, err)
			}
			if next != nil {
				rs.tail = next
				return opTail
			}
			return fall
		}
	case JmpA:
		return func(rs *runState) int { return target }
	}
	return func(rs *runState) int {
		b := k
		if useReg {
			b = rs.regs[src]
		}
		if jumpTaken(op, rs.regs[dst], b, is32) {
			return target
		}
		return fall
	}
}
