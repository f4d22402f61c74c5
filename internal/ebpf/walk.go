package ebpf

// One decoded form and one walker. Load decodes the verified stream once
// into one op per instruction slot — operands, widths and the resolved jump
// target — and walk is the only loop in the package that executes
// instructions: Program.Run and the tests' RunInterp both drive it over the
// same code.
// What an instruction means is not written here either: ALU ops and
// conditional jumps evaluate through alu and jumpTaken (isa.go), memory and
// helpers through rs.load, rs.store and rs.call (interp.go).
//
// No kind trusts the verifier. Every memory op resolves its region at run
// time through rs.mem's tag dispatch and bounds checks, and every helper its
// map handle and key through rs.call, so a verifier hole surfaces as a
// simulated fault that the hook fails open on, never as a wrong ctx field,
// stack window or map.

import "fmt"

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
)

// op is one decoded instruction slot. Fields a kind does not name are
// unused by it. The walker reads ops in place, never by value, and bumps
// hits there: the slot's execution count (Program.Hits).
type op struct {
	kind   opKind
	dst    uint8
	src    uint8
	code   uint8 // ALU or jump operation, Op & 0xf0
	wide   bool  // ALU64 rather than ALU; JMP rather than JMP32
	reg    bool  // the operand is the src register, not imm
	xadd   bool
	size   int    // access width in bytes
	target int    // next pc when a jump is taken; past the pair for kLDDW
	off    int64  // instruction offset
	imm    uint64 // sign-extended immediate; LDDW constant; helper id
	hits   uint64 // times the walker reached this slot
}

// decode translates every slot of p, the high half of an LDDW pair
// included: the walker never reaches that one in a verified program, and in
// an unverified one that jumps into it, it executes as the degenerate LDDW
// it decodes to. A kind is chosen from the instruction alone.
func decode(p *Program) []op {
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
	}
	return code
}

// Run executes the program against ctx and returns R0's low 32 bits (the
// schedule() verdict) along with execution stats. Runtime errors indicate
// an exhausted tail-call budget, an injected fault or a verifier gap;
// hooks treat them as PASS after logging. It executes on the program's own
// run state and performs zero heap allocations in steady state (errors are
// the cold path).
func (p *Program) Run(ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, st, err := p.RunRet64(ctx, env)
	return uint32(ret), st, err
}

// RunRet64 is Run but returns the full 64-bit R0; used by tests.
func (p *Program) RunRet64(ctx *Ctx, env *Env) (uint64, ExecStats, error) {
	ret, err := p.exec(&p.rs, ctx, env)
	return ret, p.rs.stats, err
}

// exec resets rs for one invocation and walks p. The caller owns rs — the
// program's own for Run, fresh for the reference — and everything per-run
// (reset, accounting, instret/fault charging) happens here and in walk, so
// the entries cannot differ. A state is reused as it was left and reset
// lazily: the 512-byte stack and the registers stay dirty because the
// verifier rejects any read of an uninitialized register or stack byte
// (only unverified loads pay for a scrub), and the env/ctx/region
// references from the last run are overwritten or truncated here — they
// point at caller-owned contexts and long-lived map storage, so holding
// them across the gap pins nothing meaningful.
func (p *Program) exec(rs *runState, ctx *Ctx, env *Env) (uint64, error) {
	if env == nil {
		env = &rs.noEnv
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
	return p.walk(rs)
}

// walk executes p on an initialized rs, one segment per program of a
// tail-call chain. A segment's instruction count stays in a register and is
// folded into the stats, and charged to the segment's program with its run
// (and its fault — after tail calls that is the callee, not p), when the
// segment ends. One op is one source instruction, so the per-instruction
// count is the loop's own bump of the op's hits, made before the op
// executes: a faulting instruction credits its own slot, and a segment's
// hits sum to its charge.
func (p *Program) walk(rs *runState) (uint64, error) {
	regs := &rs.regs
	for prog := p; ; {
		code := prog.code
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
			o.hits++
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
		prog.instret += uint64(charged)
		prog.runs++
		switch {
		case err != nil:
			prog.faults++
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
