package ebpf

import (
	"fmt"
	"strings"
)

// opt.go: the optimizing middle-end between verify and compile. Verified
// bytecode is lifted into the block IR (ir.go), rewritten by a pass
// pipeline seeded with the verifier's fact table (facts.go), and lowered
// back to bytecode (lower.go) that the interpreter and the threaded-code
// JIT consume unchanged. Every transformation is justified by a fact the
// verifier proved on all paths; following MOAT's check-don't-trust lesson
// the optimized stream is re-verified before use (program.go) and covered
// by the differential fuzz against the interpreter on the verified
// original.
//
// Soundness ground rules shared by all passes:
//   - Helper calls are never removed, duplicated or reordered relative to
//     each other, and their argument registers R1..R5 are never rewritten
//     at the call site. Helpers are the only observable side effects (map
//     writes, PRNG draws, tail calls), so the figure pipelines are
//     bit-identical with the optimizer on or off.
//   - A conditional jump is folded only when the verifier's met decision
//     across every visit is Always/Never taken — which is exactly the
//     condition under which the dead side is unreachable in any run.
//   - Facts at pc P hold on entry to P on every path; passes only use the
//     entry fact of the instruction they are rewriting.

// Elision records one optimizer decision for `syrup-policy doctor`: the
// original pc, the instruction text, and the verifier fact that justified
// the rewrite or removal.
type Elision struct {
	PC     int
	Insn   string
	Reason string
}

// PassReport is the per-pass delta: instruction slot counts before and
// after, plus every individual decision the pass made.
type PassReport struct {
	Name      string
	Before    int
	After     int
	Rewritten int
	Elisions  []Elision
}

// OptReport summarizes one optimizer run over a program.
type OptReport struct {
	OrigLen  int
	FinalLen int
	Passes   []PassReport
}

// Removed returns the total instruction slots eliminated.
func (r *OptReport) Removed() int { return r.OrigLen - r.FinalLen }

// Reduction returns the static instruction reduction as a fraction of the
// original length.
func (r *OptReport) Reduction() float64 {
	if r.OrigLen == 0 {
		return 0
	}
	return float64(r.Removed()) / float64(r.OrigLen)
}

// String renders the report the way `syrup-policy doctor` prints it:
// per-pass instruction deltas, then each elision with the verifier fact
// that justified it.
func (r *OptReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "optimizer: %d -> %d insns (-%.1f%%)\n", r.OrigLen, r.FinalLen, 100*r.Reduction())
	for _, p := range r.Passes {
		delta := p.After - p.Before
		fmt.Fprintf(&sb, "  %-12s %3d -> %3d insns (%+d), %d rewritten\n", p.Name, p.Before, p.After, delta, p.Rewritten)
		for _, e := range p.Elisions {
			fmt.Fprintf(&sb, "    insn %3d  %-32s ; %s\n", e.PC, e.Insn, e.Reason)
		}
	}
	return sb.String()
}

// Optimize rewrites a verified instruction stream using the verifier's
// fact table and returns the optimized stream plus a report. The caller
// is responsible for re-verifying the result before executing it.
func Optimize(insns []Instruction, facts *Facts) ([]Instruction, *OptReport, error) {
	if facts == nil || facts.Len() != len(insns) {
		return nil, nil, fmt.Errorf("ebpf: optimize: fact table does not match instruction stream")
	}
	pr, err := liftIR(insns)
	if err != nil {
		return nil, nil, err
	}
	rep := &OptReport{OrigLen: len(insns)}
	run := func(name string, fn func(*PassReport)) {
		p := PassReport{Name: name, Before: pr.slots()}
		fn(&p)
		p.After = pr.slots()
		rep.Passes = append(rep.Passes, p)
	}
	run("branch-fold", func(p *PassReport) { passBranchFold(pr, facts, p) })
	run("unreachable", func(p *PassReport) { passUnreachable(pr, p) })
	run("const-fold", func(p *PassReport) { passConstFold(pr, facts, p) })
	run("copy-prop", func(p *PassReport) { passCopyProp(pr, p) })
	run("dce", func(p *PassReport) { passDCE(pr, p) })
	run("dse", func(p *PassReport) { passDSE(pr, facts, p) })
	run("schedule", func(p *PassReport) { passSchedule(pr, p) })
	out, err := pr.lower()
	if err != nil {
		return nil, nil, err
	}
	rep.FinalLen = len(out)
	return out, rep, nil
}

func disasmIR(ii irInsn) string {
	if ii.wide {
		return Disassemble(ii.ins, &ii.hi)
	}
	return Disassemble(ii.ins, nil)
}

// ---------------------------------------------------------------------------
// branch-fold: rewrite conditional jumps the verifier decided statically.
// An always-taken branch becomes an unconditional ja to the same target; a
// never-taken branch is deleted outright. This covers both elision targets
// from the issue — redundant packet-bounds re-checks dominated by a proved
// bound, and null re-checks on map values already resolved non-null — plus
// any branch on constants. The knowledge-*producing* check (the first
// bounds test, the first null test) is never decided by the verifier, so
// it always survives and the rewritten program still re-verifies.

func passBranchFold(pr *irProg, facts *Facts, rep *PassReport) {
	for _, b := range pr.blocks {
		n := len(b.insns)
		if n == 0 {
			continue
		}
		last := &b.insns[n-1]
		if !isCondJump(last.ins) {
			continue
		}
		d, reason := facts.Branch(last.pc)
		switch d {
		case BranchAlwaysTaken:
			rep.Elisions = append(rep.Elisions, Elision{
				PC:     last.pc,
				Insn:   disasmIR(*last),
				Reason: "always taken: " + reason,
			})
			// JMP32 conditionals fold to the (sole) 64-bit ja form.
			last.ins = Instruction{Op: ClassJMP | JmpA}
			b.fallTo = nil
			rep.Rewritten++
		case BranchNeverTaken:
			rep.Elisions = append(rep.Elisions, Elision{
				PC:     last.pc,
				Insn:   disasmIR(*last),
				Reason: "never taken: " + reason,
			})
			b.insns = b.insns[:n-1]
		}
	}
}

// ---------------------------------------------------------------------------
// unreachable: drop blocks not reachable from the entry. After branch
// folding this is exactly the set of blocks the verifier never visited on
// any path (dead sides of folded checks).

func passUnreachable(pr *irProg, rep *PassReport) {
	reach := make(map[*irBlock]bool, len(pr.blocks))
	stack := []*irBlock{pr.blocks[0]}
	reach[pr.blocks[0]] = true
	var sbuf []*irBlock
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sbuf = b.succs(sbuf[:0])
		for _, s := range sbuf {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	keep := pr.blocks[:0]
	for _, b := range pr.blocks {
		if reach[b] {
			keep = append(keep, b)
			continue
		}
		if len(b.insns) > 0 {
			rep.Elisions = append(rep.Elisions, Elision{
				PC:     b.insns[0].pc,
				Insn:   fmt.Sprintf("<block, %d insns>", len(b.insns)),
				Reason: "unreachable after branch folding",
			})
		}
	}
	pr.blocks = keep
}

// ---------------------------------------------------------------------------
// const-fold: use the verifier's proven-constant register facts to (a)
// fold whole ALU ops into immediate moves when both operands are known,
// (b) rewrite register operands to immediates when only the source is
// known, and (c) do the same for conditional-jump sources. Every rewrite
// reproduces the runtime semantics exactly (interp.go execALU/jumpTaken):
// 32-bit ops truncate, immediates sign-extend to 64 bits, and JMP32
// unsigned compares still see the full 64-bit register value — so an
// immediate substitution is only legal when the constant round-trips.

// immFor returns the int32 immediate encoding v for an ALU op of the
// given width, if one exists. Immediates are sign-extended to 64 bits at
// execution, and 32-bit ops truncate both operands, so any value fits a
// 32-bit op while a 64-bit op needs an exact round-trip.
func immFor(v uint64, is64 bool) (int32, bool) {
	if !is64 {
		return int32(uint32(v)), true
	}
	if int64(v) == int64(int32(v)) {
		return int32(v), true
	}
	return 0, false
}

// movConstInsn builds the shortest single instruction materializing v:
// a 32-bit mov (which zero-extends) for any 32-bit value, else a 64-bit
// mov when v sign-extends from 32 bits. LDDW would cover the rest but
// never shrinks anything, so the caller just keeps the original op.
func movConstInsn(dst uint8, v uint64) (Instruction, bool) {
	if v <= 0xffffffff {
		return Instruction{Op: ClassALU | ALUMov | SrcK, Dst: dst, Imm: int32(uint32(v))}, true
	}
	if int64(v) == int64(int32(v)) {
		return Instruction{Op: ClassALU64 | ALUMov | SrcK, Dst: dst, Imm: int32(v)}, true
	}
	return Instruction{}, false
}

// foldALU mirrors execALU (interp.go) bit for bit, including div/mod by
// zero and shift masking.
func foldALU(op uint8, a, b uint64, is64 bool) (uint64, bool) {
	if !is64 {
		a, b = uint64(uint32(a)), uint64(uint32(b))
	}
	var r uint64
	switch op {
	case ALUAdd:
		r = a + b
	case ALUSub:
		r = a - b
	case ALUMul:
		r = a * b
	case ALUDiv:
		if b == 0 {
			r = 0
		} else {
			r = a / b
		}
	case ALUMod:
		if b == 0 {
			r = a
		} else {
			r = a % b
		}
	case ALUOr:
		r = a | b
	case ALUAnd:
		r = a & b
	case ALUXor:
		r = a ^ b
	case ALULsh:
		if is64 {
			r = a << (b & 63)
		} else {
			r = a << (b & 31)
		}
	case ALURsh:
		if is64 {
			r = a >> (b & 63)
		} else {
			r = a >> (b & 31)
		}
	case ALUArsh:
		if is64 {
			r = uint64(int64(a) >> (b & 63))
		} else {
			r = uint64(int32(uint32(a)) >> (b & 31))
		}
	default:
		return 0, false
	}
	if !is64 {
		r = uint64(uint32(r))
	}
	return r, true
}

func factConst(f RegFact) (uint64, bool) {
	return f.Val, f.Type == FactScalar && f.Known
}

func passConstFold(pr *irProg, facts *Facts, rep *PassReport) {
	record := func(ii irInsn, reason string) {
		rep.Elisions = append(rep.Elisions, Elision{PC: ii.pc, Insn: disasmIR(ii), Reason: reason})
		rep.Rewritten++
	}
	for _, b := range pr.blocks {
		for j := range b.insns {
			ii := &b.insns[j]
			if !facts.Visited(ii.pc) {
				continue
			}
			ins := ii.ins
			cls := ins.Class()
			switch cls {
			case ClassALU, ClassALU64:
				is64 := cls == ClassALU64
				op := ins.Op & 0xf0
				if op == ALUNeg {
					if dv, ok := factConst(facts.Reg(ii.pc, ins.Dst)); ok {
						r := -dv
						if !is64 {
							r = uint64(uint32(r))
						}
						if m, ok2 := movConstInsn(ins.Dst, r); ok2 {
							record(*ii, fmt.Sprintf("r%d proven const %d by verifier; folded", ins.Dst, dv))
							ii.ins = m
						}
					}
					continue
				}
				var sval uint64
				var sKnown bool
				if ins.Op&SrcX != 0 {
					sval, sKnown = factConst(facts.Reg(ii.pc, ins.Src))
				} else {
					sval, sKnown = uint64(int64(ins.Imm)), true
				}
				if !sKnown {
					continue
				}
				if op == ALUMov {
					if ins.Op&SrcX == 0 {
						continue // already an immediate mov
					}
					v := sval
					if !is64 {
						v = uint64(uint32(v))
					}
					if m, ok := movConstInsn(ins.Dst, v); ok {
						record(*ii, fmt.Sprintf("r%d proven const %d by verifier; mov folded to immediate", ins.Src, sval))
						ii.ins = m
					}
					continue
				}
				if dv, ok := factConst(facts.Reg(ii.pc, ins.Dst)); ok {
					if r, ok2 := foldALU(op, dv, sval, is64); ok2 {
						if m, ok3 := movConstInsn(ins.Dst, r); ok3 {
							record(*ii, fmt.Sprintf("both operands proven const (r%d=%d) by verifier; folded to %d", ins.Dst, dv, r))
							ii.ins = m
							continue
						}
					}
				}
				if ins.Op&SrcX != 0 {
					if imm, ok := immFor(sval, is64); ok {
						record(*ii, fmt.Sprintf("r%d proven const %d by verifier; operand now an immediate", ins.Src, sval))
						ii.ins.Op &^= SrcX
						ii.ins.Src = 0
						ii.ins.Imm = imm
					}
				}
			case ClassJMP, ClassJMP32:
				if !isCondJump(ins) || ins.Op&SrcX == 0 {
					continue
				}
				if sval, ok := factConst(facts.Reg(ii.pc, ins.Src)); ok {
					// Jump immediates sign-extend to 64 bits and even JMP32
					// unsigned forms compare the full register (jumpTaken),
					// so the constant must round-trip through int32 exactly.
					if imm, ok2 := immFor(sval, true); ok2 {
						record(*ii, fmt.Sprintf("r%d proven const %d by verifier; compare against immediate", ins.Src, sval))
						ii.ins.Op &^= SrcX
						ii.ins.Src = 0
						ii.ins.Imm = imm
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// copy-prop: within a block, after `mov64 rY, rX` subsequent pure reads of
// rY are rewritten to rX until either register is written. Only 64-bit
// register moves establish copies (32-bit movs truncate). Call argument
// registers are left untouched at call sites because insnUseDef marks the
// call as reading them — the rewrite only touches explicit operands, and
// calls have none.

func passCopyProp(pr *irProg, rep *PassReport) {
	const none = 0xff
	for _, b := range pr.blocks {
		var copyOf [NumRegs]uint8
		for i := range copyOf {
			copyOf[i] = none
		}
		invalidate := func(w uint8) {
			copyOf[w] = none
			for r := range copyOf {
				if copyOf[r] == w {
					copyOf[r] = none
				}
			}
		}
		for j := range b.insns {
			ii := &b.insns[j]
			ins := &ii.ins
			rewrite := func(r *uint8) {
				if c := copyOf[*r]; c != none && c != *r {
					rep.Elisions = append(rep.Elisions, Elision{
						PC:     ii.pc,
						Insn:   disasmIR(*ii),
						Reason: fmt.Sprintf("r%d is a copy of r%d here; read redirected", *r, c),
					})
					*r = c
					rep.Rewritten++
				}
			}
			switch ins.Class() {
			case ClassALU, ClassALU64:
				if ins.Op&0xf0 != ALUNeg && ins.Op&SrcX != 0 {
					rewrite(&ins.Src)
				}
			case ClassLDX:
				rewrite(&ins.Src)
			case ClassST:
				rewrite(&ins.Dst)
			case ClassSTX:
				rewrite(&ins.Dst)
				rewrite(&ins.Src)
			case ClassJMP, ClassJMP32:
				if isCondJump(*ins) {
					rewrite(&ins.Dst)
					if ins.Op&SrcX != 0 {
						rewrite(&ins.Src)
					}
				}
			}
			_, def := insnUseDef(*ii)
			for r := uint8(0); r < NumRegs; r++ {
				if def&(1<<r) != 0 {
					invalidate(r)
				}
			}
			if ins.Op == ClassALU64|ALUMov|SrcX && ins.Dst != ins.Src {
				copyOf[ins.Dst] = ins.Src
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Register use/def and liveness, shared by dce/dse/schedule.

func helperUses(imm int32) uint16 {
	if sig, ok := helperSigs[imm]; ok {
		var u uint16
		for i := range sig.args {
			u |= 1 << uint(R1+i)
		}
		return u
	}
	return 1<<R1 | 1<<R2 | 1<<R3 | 1<<R4 | 1<<R5
}

// insnUseDef returns the registers an instruction unit reads and writes
// as bitmasks. Memory effects are handled separately (dse); here stores
// only *read* their base and source.
func insnUseDef(ii irInsn) (use, def uint16) {
	ins := ii.ins
	bit := func(r uint8) uint16 { return 1 << uint(r) }
	switch ins.Class() {
	case ClassALU, ClassALU64:
		switch ins.Op & 0xf0 {
		case ALUNeg:
			return bit(ins.Dst), bit(ins.Dst)
		case ALUMov:
			if ins.Op&SrcX != 0 {
				return bit(ins.Src), bit(ins.Dst)
			}
			return 0, bit(ins.Dst)
		default:
			u := bit(ins.Dst)
			if ins.Op&SrcX != 0 {
				u |= bit(ins.Src)
			}
			return u, bit(ins.Dst)
		}
	case ClassLD: // LDDW
		return 0, bit(ins.Dst)
	case ClassLDX:
		return bit(ins.Src), bit(ins.Dst)
	case ClassST:
		return bit(ins.Dst), 0
	case ClassSTX:
		return bit(ins.Dst) | bit(ins.Src), 0
	case ClassJMP, ClassJMP32:
		switch ins.Op & 0xf0 {
		case JmpExit:
			return bit(R0), 0
		case JmpCall:
			const callDefs = 1<<R0 | 1<<R1 | 1<<R2 | 1<<R3 | 1<<R4 | 1<<R5
			return helperUses(ins.Imm), callDefs
		case JmpA:
			return 0, 0
		default:
			u := bit(ins.Dst)
			if ins.Op&SrcX != 0 {
				u |= bit(ins.Src)
			}
			return u, 0
		}
	}
	return 0, 0
}

// computeLiveOut runs a backward register-liveness fixpoint over the block
// graph and returns each block's live-out set.
func computeLiveOut(pr *irProg) map[*irBlock]uint16 {
	liveIn := make(map[*irBlock]uint16, len(pr.blocks))
	liveOut := make(map[*irBlock]uint16, len(pr.blocks))
	var sbuf []*irBlock
	for changed := true; changed; {
		changed = false
		for i := len(pr.blocks) - 1; i >= 0; i-- {
			b := pr.blocks[i]
			var out uint16
			sbuf = b.succs(sbuf[:0])
			for _, s := range sbuf {
				out |= liveIn[s]
			}
			live := out
			for j := len(b.insns) - 1; j >= 0; j-- {
				u, d := insnUseDef(b.insns[j])
				live = (live &^ d) | u
			}
			if out != liveOut[b] || live != liveIn[b] {
				liveOut[b] = out
				liveIn[b] = live
				changed = true
			}
		}
	}
	return liveOut
}

// ---------------------------------------------------------------------------
// dce: remove side-effect-free instructions whose result is never read.
// Loads count as side-effect-free because the verifier already proved
// every memory access in the stream in-bounds, so a dead load cannot be
// the thing that faults.

func dceRemovable(ins Instruction) bool {
	switch ins.Class() {
	case ClassALU, ClassALU64, ClassLD, ClassLDX:
		return true
	}
	return false
}

func passDCE(pr *irProg, rep *PassReport) {
	for {
		removed := false
		liveOut := computeLiveOut(pr)
		for _, b := range pr.blocks {
			live := liveOut[b]
			for j := len(b.insns) - 1; j >= 0; j-- {
				ii := b.insns[j]
				u, d := insnUseDef(ii)
				if d != 0 && d&live == 0 && dceRemovable(ii.ins) {
					rep.Elisions = append(rep.Elisions, Elision{
						PC:     ii.pc,
						Insn:   disasmIR(ii),
						Reason: "result never read (dead code)",
					})
					b.insns = append(b.insns[:j], b.insns[j+1:]...)
					removed = true
					continue
				}
				live = (live &^ d) | u
			}
		}
		if !removed {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// dse: dead-store elimination on the stack frame, tracked at byte
// granularity (512 bits). A store to a verifier-proven stack window whose
// bytes are all overwritten before any possible read is dead. Reads
// through pointers the verifier could not pin to a specific region, and
// every helper call (helpers take stack-pointer key/value arguments),
// conservatively make the whole frame live.

type stackSet [(StackSize + 63) / 64]uint64

func (s *stackSet) setRange(off, size int) {
	for i := off; i < off+size; i++ {
		s[i>>6] |= 1 << uint(i&63)
	}
}

func (s *stackSet) clearRange(off, size int) {
	for i := off; i < off+size; i++ {
		s[i>>6] &^= 1 << uint(i&63)
	}
}

func (s *stackSet) anyRange(off, size int) bool {
	for i := off; i < off+size; i++ {
		if s[i>>6]&(1<<uint(i&63)) != 0 {
			return true
		}
	}
	return false
}

func (s *stackSet) setAll() {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

func (s *stackSet) or(o *stackSet) {
	for i := range s {
		s[i] |= o[i]
	}
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

// dseStep applies one instruction's backward transfer to the live-byte
// set. Kill (for stores) is applied by the caller only when it also gets
// to decide removal; here only gen effects and the conservative cases.
func dseStep(ii irInsn, facts *Facts, live *stackSet) {
	ins := ii.ins
	switch ins.Class() {
	case ClassLDX:
		base := facts.Reg(ii.pc, ins.Src)
		if off, ok := stackWindow(base, ins.Off, ins.LoadSize()); ok {
			live.setRange(off, ins.LoadSize())
			return
		}
		switch base.Type {
		case FactPacket, FactMapValue, FactCtx:
			// Provably not a stack read.
		default:
			live.setAll()
		}
	case ClassST, ClassSTX:
		atomic := ins.Class() == ClassSTX && ins.Op&0xe0 == ModeATOMIC
		base := facts.Reg(ii.pc, ins.Dst)
		if off, ok := stackWindow(base, ins.Off, ins.LoadSize()); ok {
			if atomic {
				live.setRange(off, ins.LoadSize()) // XADD reads its window
			} else {
				live.clearRange(off, ins.LoadSize())
			}
			return
		}
		if atomic {
			switch base.Type {
			case FactPacket, FactMapValue, FactCtx:
			default:
				live.setAll()
			}
		}
		// A plain store through an unresolved base writes but never reads:
		// no gen, and (conservatively) no kill.
	case ClassJMP, ClassJMP32:
		if ins.Class() == ClassJMP && ins.Op&0xf0 == JmpCall {
			// Helpers read key/value windows through stack pointers.
			live.setAll()
		}
	}
}

func size(ins Instruction) int { return ins.LoadSize() }

func passDSE(pr *irProg, facts *Facts, rep *PassReport) {
	// Backward byte-liveness fixpoint over blocks.
	liveIn := make(map[*irBlock]*stackSet, len(pr.blocks))
	liveOut := make(map[*irBlock]*stackSet, len(pr.blocks))
	for _, b := range pr.blocks {
		liveIn[b] = &stackSet{}
		liveOut[b] = &stackSet{}
	}
	var sbuf []*irBlock
	for changed := true; changed; {
		changed = false
		for i := len(pr.blocks) - 1; i >= 0; i-- {
			b := pr.blocks[i]
			var out stackSet
			sbuf = b.succs(sbuf[:0])
			for _, s := range sbuf {
				out.or(liveIn[s])
			}
			live := out
			for j := len(b.insns) - 1; j >= 0; j-- {
				dseStep(b.insns[j], facts, &live)
			}
			if out != *liveOut[b] || live != *liveIn[b] {
				*liveOut[b] = out
				*liveIn[b] = live
				changed = true
			}
		}
	}

	// Removal scan with the converged live-out sets.
	for _, b := range pr.blocks {
		live := *liveOut[b]
		for j := len(b.insns) - 1; j >= 0; j-- {
			ii := b.insns[j]
			ins := ii.ins
			plainStore := (ins.Class() == ClassST || ins.Class() == ClassSTX) &&
				!(ins.Class() == ClassSTX && ins.Op&0xe0 == ModeATOMIC)
			if plainStore {
				if off, ok := stackWindow(facts.Reg(ii.pc, ins.Dst), ins.Off, ins.LoadSize()); ok {
					if !live.anyRange(off, ins.LoadSize()) {
						rep.Elisions = append(rep.Elisions, Elision{
							PC:     ii.pc,
							Insn:   disasmIR(ii),
							Reason: fmt.Sprintf("dead stack store: bytes fp%+d..%+d never read before overwrite", int(off)-StackSize, int(off)+ins.LoadSize()-StackSize),
						})
						b.insns = append(b.insns[:j], b.insns[j+1:]...)
						// Skipping the kill keeps earlier bytes live — only
						// ever conservative.
						continue
					}
				}
			}
			dseStep(ii, facts, &live)
		}
	}
}

// ---------------------------------------------------------------------------
// schedule: fusion-aware reordering. Two rewrites, both semantics-
// preserving at the instruction level, that put more adjacent pairs into
// the shapes the JIT's superinstruction table (jit_fuse.go) handles:
//
//  1. rename:  `rX op= imm ; mov64 rY, rX`  with rX dead after
//          ->  `mov64 rY, rX ; rY op= imm`
//     which is exactly the mov+alu fused shape.
//  2. swap:    `A ; X ; B` -> `X ; A ; B` when (A,B) is a fusable shape,
//     X is a pure register op independent of A, and the swap does not
//     itself create or destroy an earlier fusion opportunity.

// pureRegInsn: no memory access, no control flow, no helper call.
func pureRegInsn(ins Instruction) bool {
	switch ins.Class() {
	case ClassALU, ClassALU64, ClassLD:
		return true
	}
	return false
}

func passSchedule(pr *irProg, rep *PassReport) {
	liveOut := computeLiveOut(pr)
	for _, b := range pr.blocks {
		n := len(b.insns)
		if n < 2 {
			continue
		}
		// Per-position live-after sets for the rename rewrite.
		liveAfter := make([]uint16, n)
		live := liveOut[b]
		for j := n - 1; j >= 0; j-- {
			liveAfter[j] = live
			u, d := insnUseDef(b.insns[j])
			live = (live &^ d) | u
		}
		for j := 0; j+1 < n; j++ {
			a, c := &b.insns[j], &b.insns[j+1]
			if a.ins.Class() == ClassALU64 && a.ins.Op&SrcX == 0 && fusableALUImm(a.ins.Op&0xf0) &&
				c.ins.Op == ClassALU64|ALUMov|SrcX &&
				c.ins.Src == a.ins.Dst && c.ins.Dst != a.ins.Dst &&
				liveAfter[j+1]&(1<<a.ins.Dst) == 0 {
				rX, rY := a.ins.Dst, c.ins.Dst
				op, imm := a.ins.Op&0xf0, a.ins.Imm
				rep.Elisions = append(rep.Elisions, Elision{
					PC:     a.pc,
					Insn:   disasmIR(*a),
					Reason: fmt.Sprintf("r%d dead after the copy; re-associated through r%d to enable fusion", rX, rY),
				})
				a.ins = Instruction{Op: ClassALU64 | ALUMov | SrcX, Dst: rY, Src: rX}
				c.ins = Instruction{Op: ClassALU64 | op | SrcK, Dst: rY, Imm: imm}
				rep.Rewritten += 2
				// liveAfter entries before j are unchanged: the pair's
				// combined use/def is identical (reads rX, writes rY; the
				// old pair also wrote rX, so earlier liveness can only
				// have shrunk — which never invalidates a later decision
				// of this same form).
			}
		}
		// Adjacency swap.
		for j := 0; j+2 < len(b.insns); j++ {
			a, x, c := b.insns[j], b.insns[j+1], b.insns[j+2]
			if !pureRegInsn(x.ins) || x.target != nil {
				continue
			}
			if !fusableShape(a.ins, c.ins) {
				continue
			}
			ua, da := insnUseDef(a)
			ux, dx := insnUseDef(x)
			if da&(ux|dx) != 0 || dx&(ua|da) != 0 {
				continue
			}
			// Don't let the moved insn pair up in A's place.
			if fusableShape(x.ins, a.ins) || fusableShape(a.ins, x.ins) {
				continue
			}
			rep.Elisions = append(rep.Elisions, Elision{
				PC:     x.pc,
				Insn:   disasmIR(x),
				Reason: "hoisted above an independent pair to expose fusion",
			})
			b.insns[j], b.insns[j+1] = x, a
			rep.Rewritten += 2
			j++
		}
	}
}
