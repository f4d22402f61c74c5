package ebpf

// jit_fuse.go: superinstruction fusion. Adjacent instructions in the
// dominant shapes of real policies — the map-key prologue, stack address
// math, counter bumps, call+null-check, load+compare, the epilogue —
// compile to one closure, halving dispatches on those sequences.
//
// Every pair shape is one row of fusions: the predicate that recognises it
// and the emitter compile applies. Rows are mutually exclusive, so at most
// one matches a given pair. Nothing reorders a policy toward these shapes;
// the shipped sources are written in them (`r0 = r6; r0 %= N`, the map
// handle loaded before the key store).
//
// Accounting rule: a fused closure covers contiguous slots i..i+n and
// bumps rs.extra only once a later instruction's semantics actually
// execute, so a fault in an earlier half charges exactly like the
// interpreter — and the profiling decorator can credit slots
// i..i+Δextra. A fused closure computes nothing of its own: each half
// evaluates through the same alu / jumpTaken / rs.load / rs.store its
// standalone closure would, so error strings and ExecStats stay
// bit-identical to the interpreter's.

type fusion struct {
	// match reports whether b immediately after a is this shape.
	match func(a, b Instruction) bool
	// emit builds the closure for the shape at slot i (slot i+1 is already
	// known not to be a jump target), or nil when a condition beyond the
	// pair — a third slot, a jump target further in — rules it out.
	emit func(p *Program, i int, targets []bool) opFunc
}

var fusions = []fusion{
	// st imm ; lddw  →  store, then materialize the 3-slot constant: the
	// map-key prologue `*(u32*)(r10-4) = 0; r1 = map(...)`.
	{
		match: func(a, b Instruction) bool { return a.Class() == ClassST && b.IsLDDW() },
		emit:  (*Program).fuseStLddw,
	},
	// mov64 dst, src ; alu64 dst, imm  →  dst = src OP imm: stack address
	// math `r2 = r10; r2 += -4`.
	{
		match: func(a, b Instruction) bool {
			return a.Op == ClassALU64|ALUMov|SrcX && b.Class() == ClassALU64 && b.Op&SrcX == 0 &&
				a.Dst == b.Dst && fusableALUImm(b.Op&0xf0)
		},
		emit: (*Program).fuseMovALU,
	},
	// ldx dst, [src+off] ; alu64 dst, imm  →  load then fold in place.
	// Restricted to add/and (counter bumps and masks).
	{
		match: func(a, b Instruction) bool {
			return a.Class() == ClassLDX && b.Class() == ClassALU64 && b.Op&SrcX == 0 && a.Dst == b.Dst &&
				(b.Op&0xf0 == ALUAdd || b.Op&0xf0 == ALUAnd)
		},
		emit: (*Program).fuseLdxALU,
	},
	// call ; if r0 ==/!= imm  →  invoke the helper, branch on R0.
	{
		match: func(a, b Instruction) bool {
			return a.Class() == ClassJMP && a.Op&0xf0 == JmpCall && isCondJump(b) && b.Op&SrcX == 0 &&
				b.Dst == R0 && (b.Op&0xf0 == JmpEq || b.Op&0xf0 == JmpNe)
		},
		emit: (*Program).fuseCallJmp,
	},
	// ldx ; if rX OP imm  →  load then compare.
	{
		match: func(a, b Instruction) bool {
			return a.Class() == ClassLDX && isCondJump(b) && b.Op&SrcX == 0 && b.Dst == a.Dst
		},
		emit: (*Program).fuseLdxJmp,
	},
	// alu ; exit  →  the epilogue collapses to one dispatch.
	{
		match: func(a, b Instruction) bool {
			return isExit(b) && (a.Class() == ClassALU || a.Class() == ClassALU64)
		},
		emit: (*Program).fuseALUExit,
	},
	// st/stx ; mov  →  store then the move; the move reads its operand
	// after the store, exactly as sequential execution would.
	{
		match: func(a, b Instruction) bool {
			return (a.Class() == ClassST || (a.Class() == ClassSTX && a.Op&0xe0 != ModeATOMIC)) &&
				(b.Op == ClassALU64|ALUMov|SrcX || b.Op == ClassALU64|ALUMov|SrcK ||
					b.Op == ClassALU|ALUMov|SrcK)
		},
		emit: (*Program).fuseStoreMov,
	},
}

// fusableALUImm reports the immediate ops the mov+alu shape admits.
func fusableALUImm(op uint8) bool {
	switch op {
	case ALUAdd, ALUSub, ALUAnd, ALUOr, ALUXor, ALUMod, ALULsh, ALURsh:
		return true
	}
	return false
}

// compileFused returns one closure executing the fusable sequence that
// starts at slot i, or nil. The three-slot read-modify-write is tried
// first; it is not a pair shape.
func (p *Program) compileFused(i int, targets []bool) opFunc {
	if f := p.fuseRMW(i, targets); f != nil {
		return f
	}
	a, b := p.insns[i], p.insns[i+1]
	for _, f := range fusions {
		if f.match(a, b) {
			return f.emit(p, i, targets)
		}
	}
	return nil
}

// fuseStLddw: Load guarantees every verified LDDW low half has its high
// half, so i+2 is in range; both LDDW slots must be jump-free. The shape
// is the map-key prologue, whose store facts always pin to a stack window;
// a store they do not pin is left to its own closure.
func (p *Program) fuseStLddw(i int, targets []bool) opFunc {
	if i+2 >= len(p.insns) || targets[i+2] {
		return nil
	}
	a, b := p.insns[i], p.insns[i+1]
	size := a.LoadSize()
	lo, ok := stackWindow(p.regFact(i, a.Dst), a.Off, size)
	if !ok {
		return nil
	}
	sval := uint64(int64(a.Imm))
	v := Imm64(b, p.insns[i+2])
	if b.Src == PseudoMapFD {
		v = ptrVal(regionMapHandle, uint64(b.Imm))
	}
	ldst := b.Dst
	next := i + 3
	return func(rs *runState) int {
		storeSized(rs.stack[lo:lo+size], size, sval)
		rs.extra++
		rs.regs[ldst] = v
		return next
	}
}

func (p *Program) fuseMovALU(i int, _ []bool) opFunc {
	a, b := p.insns[i], p.insns[i+1]
	op := b.Op & 0xf0
	k := uint64(int64(b.Imm))
	dst, src := b.Dst, a.Src
	next := i + 2
	return func(rs *runState) int {
		rs.extra++
		rs.regs[dst], _ = alu(op, true, rs.regs[src], k)
		return next
	}
}

// fuseLdxALU: the load half can fault, in which case rs.extra is not
// bumped — matching the interpreter, which never reaches the second
// instruction.
func (p *Program) fuseLdxALU(i int, _ []bool) opFunc {
	a, b := p.insns[i], p.insns[i+1]
	dst, src := a.Dst, a.Src
	off := int64(a.Off)
	size := a.LoadSize()
	op := b.Op & 0xf0
	k := uint64(int64(b.Imm))
	next := i + 2
	return func(rs *runState) int {
		v, err := rs.load(rs.regs[src], off, size)
		if err != nil {
			return p.fault(rs, i, err)
		}
		rs.extra++
		rs.regs[dst], _ = alu(op, true, v, k)
		return next
	}
}

// fuseRMW: ldx rD,[rB+off] ; rD op= imm ; stx [rB+off],rD  →  the classic
// read-modify-write counter bump, with a single window resolution serving
// both the load and the store (same base, offset and size, and rB is not
// clobbered in between). The only faultable step is the window
// resolution, charged to the ldx exactly like the interpreter.
func (p *Program) fuseRMW(i int, targets []bool) opFunc {
	if i+2 >= len(p.insns) || targets[i+2] {
		return nil
	}
	a, b, c := p.insns[i], p.insns[i+1], p.insns[i+2]
	op := b.Op & 0xf0
	if a.Class() != ClassLDX || b.Class() != ClassALU64 || b.Op&SrcX != 0 || b.Dst != a.Dst ||
		c.Class() != ClassSTX || c.Op&0xe0 == ModeATOMIC ||
		c.Dst != a.Src || c.Src != a.Dst || c.Off != a.Off ||
		c.LoadSize() != a.LoadSize() || a.Src == a.Dst ||
		(op != ALUAdd && op != ALUSub && op != ALUAnd && op != ALUOr && op != ALUXor) {
		return nil
	}
	dst, src := a.Dst, a.Src
	off := int64(a.Off)
	size := a.LoadSize()
	k := uint64(int64(b.Imm))
	next := i + 3
	return func(rs *runState) int {
		m, _, err := rs.mem(rs.regs[src]+uint64(off), size)
		if err != nil {
			return p.fault(rs, i, err)
		}
		v, _ := alu(op, true, loadSized(m, size), k)
		rs.regs[dst] = v
		storeSized(m, size, v)
		rs.extra += 2
		return next
	}
}

// fuseCallJmp: a successful tail call transfers control and never reaches
// the branch.
func (p *Program) fuseCallJmp(i int, _ []bool) opFunc {
	b := p.insns[i+1]
	core := p.compileCallCore(i)
	op := b.Op & 0xf0
	is32 := b.Class() == ClassJMP32
	k := uint64(int64(b.Imm))
	target := i + 2 + int(b.Off)
	fall := i + 2
	return func(rs *runState) int {
		next, err := core(rs)
		if err != nil {
			return p.fault(rs, i, err)
		}
		if next != nil {
			rs.tail = next
			return opTail
		}
		rs.extra++
		if jumpTaken(op, rs.regs[R0], k, is32) {
			return target
		}
		return fall
	}
}

func isCondJump(ins Instruction) bool {
	cls := ins.Class()
	if cls != ClassJMP && cls != ClassJMP32 {
		return false
	}
	switch ins.Op & 0xf0 {
	case JmpExit, JmpCall, JmpA:
		return false
	}
	return true
}

func isExit(ins Instruction) bool {
	return ins.Class() == ClassJMP && ins.Op&0xf0 == JmpExit
}

func (p *Program) fuseLdxJmp(i int, _ []bool) opFunc {
	a, b := p.insns[i], p.insns[i+1]
	dst, src := a.Dst, a.Src
	off := int64(a.Off)
	size := a.LoadSize()
	op := b.Op & 0xf0
	is32 := b.Class() == ClassJMP32
	k := uint64(int64(b.Imm))
	target := i + 2 + int(b.Off)
	fall := i + 2
	return func(rs *runState) int {
		v, err := rs.load(rs.regs[src], off, size)
		if err != nil {
			return p.fault(rs, i, err)
		}
		rs.regs[dst] = v
		rs.extra++
		if jumpTaken(op, v, k, is32) {
			return target
		}
		return fall
	}
}

// fuseALUExit: compileALU's closure aimed at opExit, plus the extra slot,
// covers every ALU form (`r0 = 1`, `r0 = r6`, `r0 %= 6`, ...). An ALU op in
// a verified stream cannot fault, so the up-front extra bump never
// misattributes.
func (p *Program) fuseALUExit(i int, _ []bool) opFunc {
	inner := compileALU(p.insns[i], opExit)
	return func(rs *runState) int {
		rs.extra++
		return inner(rs)
	}
}

func (p *Program) fuseStoreMov(i int, _ []bool) opFunc {
	a, b := p.insns[i], p.insns[i+1]
	size := a.LoadSize()
	sdst, ssrc := a.Dst, a.Src
	soff := int64(a.Off)
	sk := uint64(int64(a.Imm))
	isSTX := a.Class() == ClassSTX
	movReg := b.Op&SrcX != 0
	mdst, msrc := b.Dst, b.Src
	kk, _ := alu(ALUMov, b.Class() == ClassALU64, 0, uint64(int64(b.Imm)))
	next := i + 2
	return func(rs *runState) int {
		v := sk
		if isSTX {
			v = rs.regs[ssrc]
		}
		if err := rs.store(rs.regs[sdst], soff, size, v, false); err != nil {
			return p.fault(rs, i, err)
		}
		rs.extra++
		if movReg {
			rs.regs[mdst] = rs.regs[msrc]
		} else {
			rs.regs[mdst] = kk
		}
		return next
	}
}
