package ebpf

import (
	"maps"
	"math/bits"
)

// The verifier simulates program execution one instruction at a time over an
// abstract state (register types, constant values, packet bounds, stack
// contents), exploring both sides of every branch whose outcome it cannot
// decide. It enforces the safety obligations the paper relies on (§4.3):
//
//   - no reads of uninitialized registers or stack bytes;
//   - packet memory only after an explicit bounds check against data_end
//     (which is why schedule() receives both pkt_start and pkt_end);
//   - map value pointers only after a null check;
//   - all memory accesses within their region (stack, packet, map value,
//     context), with in-range constant offsets;
//   - helper calls type-checked against each helper's row in helpers;
//   - a bounded analysis budget: programs whose exploration exceeds it are
//     rejected, which is what restricts users to bounded loops.

type regType uint8

const (
	tInvalid regType = iota
	tScalar
	tCtx
	tPacket
	tPacketEnd
	tStack
	tMapHandle
	tMapValue
	tMapValueOrNull
)

func (t regType) String() string {
	switch t {
	case tInvalid:
		return "uninit"
	case tScalar:
		return "scalar"
	case tCtx:
		return "ctx"
	case tPacket:
		return "pkt"
	case tPacketEnd:
		return "pkt_end"
	case tStack:
		return "fp"
	case tMapHandle:
		return "map_ptr"
	case tMapValue:
		return "map_value"
	case tMapValueOrNull:
		return "map_value_or_null"
	}
	return "?"
}

// vreg is the abstract value of one register.
type vreg struct {
	typ    regType
	known  bool   // typ==tScalar and val is exact
	off    int32  // pointer offset from region base (stack: <=0 from r10), within ±2^29
	val    uint64 // exact scalar value when known
	mapIdx int32  // for tMapHandle / tMapValue(_OrNull)
	id     int32  // identity for null-check propagation
}

func scalarUnknown() vreg { return vreg{typ: tScalar} }
func scalarConst(v uint64) vreg {
	return vreg{typ: tScalar, known: true, val: v}
}

// vstate is the abstract machine state at one program point: a value, which
// fork copies.
type vstate struct {
	regs [NumRegs]vreg
	// pktRange: bytes [0, pktRange) of the packet proven accessible.
	pktRange int64
	// stackInit: bitmap over the 512 stack bytes (bit set = initialized).
	stackInit [StackSize / 8]uint8
	// spills: pointers spilled to the stack, keyed by 8-byte slot: slot k
	// holds bytes [fp+8k, fp+8k+8), k = -64..-1.
	spills map[int8]vreg
}

// memOp is what an access does with the bytes it touches.
type memOp uint8

const (
	memLoad   memOp = iota // a load: reads, and may fill a spilled pointer
	memRead                // a helper's memory argument: reads
	memStore               // a store: writes
	memAtomic              // an atomic add: reads, then writes
)

// stack applies the stack rule to an access of size bytes at fp+abs that is
// in bounds. The access touches the 8-byte slots floor(abs/8) through
// floor((abs+size-1)/8). A read needs its bytes initialized, and only a
// load of one whole, aligned slot may read a spilled pointer: it fills the
// pointer back. A store initializes its bytes, and only a store of a whole,
// aligned slot may overwrite a spill: it demotes the slot to plain bytes.
func (s *vstate) stack(pc int, abs int64, size int, op memOp) (vreg, error) {
	for b := StackSize + abs; b < StackSize+abs+int64(size); b++ {
		if op == memStore {
			s.stackInit[b/8] |= 1 << (b % 8)
		} else if s.stackInit[b/8]&(1<<(b%8)) == 0 {
			return vreg{}, reject(pc, "read of uninitialized stack at fp%+d", abs)
		}
	}
	for slot := abs >> 3; slot <= (abs+int64(size)-1)>>3; slot++ {
		sp, ok := s.spills[int8(slot)]
		switch {
		case !ok:
		case op == memStore && (size != 8 || abs != slot*8):
			return vreg{}, reject(pc, "attempt to corrupt %v pointer spilled at fp%+d: only an aligned 8-byte store may overwrite it", sp.typ, slot*8)
		case op == memStore:
			delete(s.spills, int8(slot))
		case op == memLoad && size == 8 && abs == slot*8:
			return sp, nil
		default:
			return vreg{}, reject(pc, "leaking %v pointer spilled at fp%+d: only an aligned 8-byte load may read it", sp.typ, slot*8)
		}
	}
	return scalarUnknown(), nil
}

// markNullResolved rewrites every copy of the or-null value with identity
// id — in registers and spilled slots — to the resolved type.
func (s *vstate) markNullResolved(id int32, isNull bool) {
	fix := func(r vreg) vreg {
		if r.typ == tMapValueOrNull && r.id == id {
			if isNull {
				return scalarConst(0)
			}
			r.typ = tMapValue
		}
		return r
	}
	for i := range s.regs {
		s.regs[i] = fix(s.regs[i])
	}
	for k, v := range s.spills {
		s.spills[k] = fix(v)
	}
}

type branchPoint struct {
	pc int
	st vstate
}

type verifier struct {
	insns  []Instruction
	maps   []MapSpec // what the pseudo-map LDDW immediates index
	budget int
	used   int
	nextID int32
	// pending is the stack of the taken sides of undecided branches still
	// to explore, npending deep. Entry i is in chunk k = log2(i+1), of 2^k
	// entries, so the stack grows without copying what it holds.
	pending  [64][]branchPoint
	npending int
	// lddwHi marks instruction slots that are the high half of an LDDW
	// pair; jumping into one is rejected.
	lddwHi   []bool
	paths    int  // explored so far
	backEdge bool // a jump went to an earlier instruction: the only way to loop
}

// verify runs the abstract interpretation of insns, whose LDDW pairs
// verifyFile found whole, over the map specs their pseudo-map immediates
// index; nil means the program is admitted.
func verify(insns []Instruction, maps []MapSpec, budget int) error {
	v := &verifier{insns: insns, maps: maps, budget: budget, lddwHi: make([]bool, len(insns))}
	for i := 0; i < len(insns); i++ {
		if insns[i].IsLDDW() {
			v.lddwHi[i+1] = true
			i++
		}
	}

	var st vstate
	st.regs[R1] = vreg{typ: tCtx}
	st.regs[R10] = vreg{typ: tStack, off: 0}
	for pc := 0; ; {
		v.paths++
		if err := v.explore(pc, &st); err != nil {
			return err
		}
		if v.npending == 0 {
			return nil
		}
		v.npending--
		bp := v.pendingAt(v.npending)
		pc, st = bp.pc, bp.st
	}
}

// fork queues the taken side of an undecided branch to target as a copy of
// st, cloning its spills only when it holds any, and returns it for the
// caller to refine; st goes on as the fallthrough side.
func (v *verifier) fork(target int, st *vstate) *vstate {
	bp := v.pendingAt(v.npending)
	v.npending++
	bp.pc, bp.st = target, *st
	bp.st.spills = nil
	if len(st.spills) > 0 {
		bp.st.spills = maps.Clone(st.spills)
	}
	return &bp.st
}

// pendingAt is pending's entry i, allocating its chunk on first use.
func (v *verifier) pendingAt(i int) *branchPoint {
	k := bits.Len(uint(i+1)) - 1
	if v.pending[k] == nil {
		v.pending[k] = make([]branchPoint, 1<<k)
	}
	return &v.pending[k][i+1-1<<k]
}

func (v *verifier) newID() int32 {
	v.nextID++
	return v.nextID
}

func (v *verifier) jumpTarget(pc int, off int16) (int, error) {
	t := pc + 1 + int(off)
	if t < 0 || t >= len(v.insns) {
		return 0, reject(pc, "jump target %d out of range", t)
	}
	if v.lddwHi[t] {
		return 0, reject(pc, "jump into the middle of an LDDW pair")
	}
	v.backEdge = v.backEdge || t <= pc
	return t, nil
}

// explore simulates linearly from pc until exit or an undecidable branch
// (which pushes one side and continues down the other).
func (v *verifier) explore(pc int, st *vstate) error {
	for {
		if pc >= len(v.insns) {
			return reject(len(v.insns)-1, "fell off the end of the program (missing exit)")
		}
		if v.used >= v.budget {
			why := "it has no loop, but too many paths"
			if v.backEdge {
				why = "program may be unbounded"
			}
			return reject(pc, "analysis budget of %d instructions exceeded after exploring %d paths; %s", v.budget, v.paths, why)
		}
		v.used++
		ins := v.insns[pc]
		switch ins.Class() {
		case ClassALU64, ClassALU:
			if err := v.checkALU(pc, ins, st); err != nil {
				return err
			}
			pc++
		case ClassLD:
			if !ins.IsLDDW() {
				return reject(pc, "unsupported LD mode %#x (legacy ABS/IND not supported)", ins.Op)
			}
			if ins.Dst >= R10 {
				return reject(pc, "cannot write R%d", ins.Dst)
			}
			if ins.Src == PseudoMapFD {
				st.regs[ins.Dst] = vreg{typ: tMapHandle, mapIdx: ins.Imm}
			} else if ins.Src == 0 {
				st.regs[ins.Dst] = scalarConst(Imm64(ins, v.insns[pc+1]))
			} else {
				return reject(pc, "unsupported LDDW source %d", ins.Src)
			}
			pc += 2
		case ClassLDX:
			if err := v.checkLoad(pc, ins, st); err != nil {
				return err
			}
			pc++
		case ClassST, ClassSTX:
			if err := v.checkStore(pc, ins, st); err != nil {
				return err
			}
			pc++
		case ClassJMP, ClassJMP32:
			next, done, err := v.checkJump(pc, ins, st)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			pc = next
		default:
			return reject(pc, "unknown class %#x", ins.Op)
		}
	}
}

func (v *verifier) readReg(pc int, st *vstate, r uint8) (vreg, error) {
	if r >= NumRegs {
		return vreg{}, reject(pc, "bad register R%d", r)
	}
	if st.regs[r].typ == tInvalid {
		return vreg{}, reject(pc, "R%d !read_ok (uninitialized)", r)
	}
	return st.regs[r], nil
}

func (v *verifier) writable(pc int, r uint8) error {
	if r >= R10 {
		return reject(pc, "cannot write R%d (frame pointer is read-only)", r)
	}
	return nil
}

func (v *verifier) checkALU(pc int, ins Instruction, st *vstate) error {
	op := ins.Op & 0xf0
	is64 := ins.Class() == ClassALU64
	if err := v.writable(pc, ins.Dst); err != nil {
		return err
	}

	// Resolve the operands as the machine reads them: the source is a
	// register or the sign-extended immediate (NEG's too, though it goes
	// unused), and MOV does not read dst.
	src, dst := scalarConst(uint64(int64(ins.Imm))), scalarConst(0)
	var err error
	if ins.Op&SrcX != 0 {
		if src, err = v.readReg(pc, st, ins.Src); err != nil {
			return err
		}
	}
	if op != ALUMov {
		if dst, err = v.readReg(pc, st, ins.Dst); err != nil {
			return err
		}
	} else if is64 {
		st.regs[ins.Dst] = src // pointers move whole
		return nil
	}

	// Pointer arithmetic: only ADD/SUB of a constant-or-scalar to a
	// packet/stack/map-value pointer held in dst.
	if dst.typ != tScalar {
		if !is64 {
			return reject(pc, "32-bit ALU on %v pointer", dst.typ)
		}
		switch dst.typ {
		case tPacket, tStack, tMapValue:
		default:
			return reject(pc, "arithmetic on %v is not allowed", dst.typ)
		}
		if src.typ != tScalar || !src.known {
			return reject(pc, "pointer arithmetic with unknown scalar (only constant offsets are supported)")
		}
		off, delta := int64(dst.off), int64(src.val)
		switch op {
		case ALUAdd:
			off += delta
		case ALUSub:
			off -= delta
		default:
			return reject(pc, "pointer ALU op %#x not allowed (only += / -=)", op)
		}
		// Keep pointer offsets far away from the runtime tag bits.
		const maxPtrOff = 1 << 29
		if off > maxPtrOff || off < -maxPtrOff {
			return reject(pc, "pointer offset %d out of bounds", off)
		}
		dst.off = int32(off)
		st.regs[ins.Dst] = dst
		return nil
	}
	if src.typ != tScalar {
		// A pointer operand would leak its address into a scalar; a 32-bit
		// MOV would mangle it on the way.
		if op == ALUMov {
			return reject(pc, "32-bit MOV of %v pointer", src.typ)
		}
		return reject(pc, "%v pointer as ALU source operand", src.typ)
	}

	// Scalar arithmetic. A constant result is, by construction, the value
	// the machine computes: the fold is the run-time table itself.
	if (op == ALUDiv || op == ALUMod) && src.known && src.val == 0 {
		return reject(pc, "division by zero constant")
	}
	r, ok := alu(op, is64, dst.val, src.val)
	if !ok {
		return reject(pc, "unknown ALU op %#x", op)
	}
	if dst.known && src.known {
		st.regs[ins.Dst] = scalarConst(r)
	} else {
		st.regs[ins.Dst] = scalarUnknown()
	}
	return nil
}

// checkMemAccess validates an access of size bytes at base+off and returns
// what a load of them reads.
func (v *verifier) checkMemAccess(pc int, st *vstate, base vreg, off int64, size int, op memOp) (vreg, error) {
	a := int64(base.off) + off
	switch base.typ {
	case tStack:
		if a < -StackSize || a+int64(size) > 0 {
			return vreg{}, reject(pc, "stack access at fp%+d size %d out of bounds", a, size)
		}
		return st.stack(pc, a, size, op)
	case tPacket:
		if a < 0 || a+int64(size) > st.pktRange {
			return vreg{}, reject(pc, "packet access at offset %d size %d outside verified range [0,%d) — add a bounds check against pkt_end", a, size, st.pktRange)
		}
		return scalarUnknown(), nil
	case tMapValue:
		vs := int64(v.maps[base.mapIdx].ValueSize)
		if a < 0 || a+int64(size) > vs {
			return vreg{}, reject(pc, "map value access at offset %d size %d outside value size %d", a, size, vs)
		}
		return scalarUnknown(), nil
	case tMapValueOrNull:
		return vreg{}, reject(pc, "map value access before null check")
	case tCtx:
		if op >= memStore {
			return vreg{}, reject(pc, "context is read-only")
		}
		switch {
		case a == CtxOffData && size == 8:
			return vreg{typ: tPacket, off: 0}, nil
		case a == CtxOffDataEnd && size == 8:
			return vreg{typ: tPacketEnd}, nil
		case (a == CtxOffHash || a == CtxOffPort || a == CtxOffQueue) && size == 4:
			return scalarUnknown(), nil
		}
		return vreg{}, reject(pc, "invalid context access at offset %d size %d", a, size)
	case tPacketEnd:
		return vreg{}, reject(pc, "dereference of pkt_end pointer")
	case tMapHandle:
		return vreg{}, reject(pc, "dereference of map handle")
	case tScalar:
		return vreg{}, reject(pc, "memory access via scalar (R has no pointer type)")
	}
	return vreg{}, reject(pc, "memory access via %v", base.typ)
}

func (v *verifier) checkLoad(pc int, ins Instruction, st *vstate) error {
	if (ins.Op & 0xe0) != ModeMEM {
		return reject(pc, "unsupported LDX mode %#x", ins.Op)
	}
	if err := v.writable(pc, ins.Dst); err != nil {
		return err
	}
	base, err := v.readReg(pc, st, ins.Src)
	if err != nil {
		return err
	}
	r, err := v.checkMemAccess(pc, st, base, int64(ins.Off), ins.LoadSize(), memLoad)
	if err != nil {
		return err
	}
	st.regs[ins.Dst] = r
	return nil
}

func (v *verifier) checkStore(pc int, ins Instruction, st *vstate) error {
	op := memStore
	if mode := ins.Op & 0xe0; ins.Class() == ClassSTX && mode == ModeATOMIC {
		op = memAtomic
	} else if mode != ModeMEM {
		return reject(pc, "unsupported store mode %#x", ins.Op)
	}
	base, err := v.readReg(pc, st, ins.Dst)
	if err != nil {
		return err
	}
	size := ins.LoadSize()
	if op == memAtomic && size < 4 {
		return reject(pc, "atomic add requires 32- or 64-bit width")
	}

	src := scalarConst(uint64(int64(ins.Imm)))
	if ins.Class() == ClassSTX {
		if src, err = v.readReg(pc, st, ins.Src); err != nil {
			return err
		}
		if op == memAtomic && src.typ != tScalar {
			return reject(pc, "atomic add of %v pointer", src.typ)
		}
	}

	if _, err := v.checkMemAccess(pc, st, base, int64(ins.Off), size, op); err != nil {
		return err
	}

	// Pointers may only be stored to the stack, 8-byte aligned (spill).
	if src.typ != tScalar {
		if base.typ != tStack {
			return reject(pc, "leaking %v pointer into %v memory", src.typ, base.typ)
		}
		abs := int64(base.off) + int64(ins.Off)
		if size != 8 || abs%8 != 0 {
			return reject(pc, "pointer spill must be 8-byte aligned and 8 bytes wide")
		}
		if st.spills == nil {
			st.spills = make(map[int8]vreg)
		}
		st.spills[int8(abs>>3)] = src
	}
	return nil
}

// checkCall checks each argument register of a call against its helper's row.
func (v *verifier) checkCall(pc int, ins Instruction, st *vstate) error {
	h, err := helperAt(ins.Imm)
	if err != nil {
		err.slot = pc
		return err
	}
	var m MapSpec // the map the call's handle names
	mapIdx := int32(-1)
	for i, kind := range h.args {
		r := uint8(R1 + i)
		arg, err := v.readReg(pc, st, r)
		if err != nil {
			return reject(pc, "helper %s: %s", h.name, err.(*posError).reason)
		}
		switch kind {
		case argCtx:
			if arg.typ != tCtx {
				return reject(pc, "helper %s arg%d: want ctx, got %v", h.name, i+1, arg.typ)
			}
		case argMapHandle, argProgArray:
			if arg.typ != tMapHandle {
				return reject(pc, "helper %s arg%d: want map handle, got %v", h.name, i+1, arg.typ)
			}
			m = v.maps[arg.mapIdx]
			if kind == argProgArray && m.Type != MapProgArray {
				return reject(pc, "%s requires a prog_array map, got %v", h.name, m.Type)
			}
			if kind == argMapHandle && m.Type == MapProgArray {
				return reject(pc, "helper %s cannot use prog_array map", h.name)
			}
			mapIdx = arg.mapIdx
		case argStackKey:
			if arg.typ != tStack {
				return reject(pc, "helper %s arg%d: key must point to the stack, got %v", h.name, i+1, arg.typ)
			}
			if _, err := v.checkMemAccess(pc, st, arg, 0, int(m.KeySize), memRead); err != nil {
				return reject(pc, "helper %s key: %s", h.name, err.(*posError).reason)
			}
		case argStackValue:
			switch arg.typ {
			case tStack, tMapValue, tPacket:
				if _, err := v.checkMemAccess(pc, st, arg, 0, int(m.ValueSize), memRead); err != nil {
					return reject(pc, "helper %s value: %s", h.name, err.(*posError).reason)
				}
			default:
				return reject(pc, "helper %s arg%d: value must be readable memory, got %v", h.name, i+1, arg.typ)
			}
		case argScalar:
			if arg.typ != tScalar {
				return reject(pc, "helper %s arg%d: want scalar, got %v", h.name, i+1, arg.typ)
			}
		}
	}
	// Clobber caller-saved registers.
	for r := R1; r <= R5; r++ {
		st.regs[r] = vreg{}
	}
	if h.retMapValue {
		st.regs[R0] = vreg{typ: tMapValueOrNull, mapIdx: mapIdx, id: v.newID()}
	} else {
		st.regs[R0] = scalarUnknown()
	}
	return nil
}

// checkJump handles JMP-class instructions. It returns the next pc, or
// done=true when this path terminated (EXIT).
func (v *verifier) checkJump(pc int, ins Instruction, st *vstate) (int, bool, error) {
	op := ins.Op & 0xf0
	is32 := ins.Class() == ClassJMP32

	switch op {
	case JmpExit:
		if is32 {
			return 0, false, reject(pc, "exit in jmp32 class")
		}
		r0 := st.regs[R0]
		if r0.typ == tInvalid {
			return 0, false, reject(pc, "exit with uninitialized R0")
		}
		if r0.typ != tScalar {
			return 0, false, reject(pc, "exit with %v pointer in R0 (would leak a kernel address)", r0.typ)
		}
		return 0, true, nil
	case JmpCall:
		if is32 {
			return 0, false, reject(pc, "call in jmp32 class")
		}
		if err := v.checkCall(pc, ins, st); err != nil {
			return 0, false, err
		}
		return pc + 1, false, nil
	case JmpA:
		if is32 {
			return 0, false, reject(pc, "ja in jmp32 class")
		}
		t, err := v.jumpTarget(pc, ins.Off)
		if err != nil {
			return 0, false, err
		}
		return t, false, nil
	}

	// Conditional jump.
	dst, err := v.readReg(pc, st, ins.Dst)
	if err != nil {
		return 0, false, err
	}
	var src vreg
	if ins.Op&SrcX != 0 {
		s, err := v.readReg(pc, st, ins.Src)
		if err != nil {
			return 0, false, err
		}
		src = s
	} else {
		src = scalarConst(uint64(int64(ins.Imm)))
	}
	target, err := v.jumpTarget(pc, ins.Off)
	if err != nil {
		return 0, false, err
	}

	// Null-check refinement: `if rX == 0` / `if rX != 0` on an or-null
	// map value.
	if dst.typ == tMapValueOrNull && src.typ == tScalar && src.known && src.val == 0 &&
		(op == JmpEq || op == JmpNe) {
		v.fork(target, st).markNullResolved(dst.id, op == JmpEq) // == 0 taken → null
		st.markNullResolved(dst.id, op != JmpEq)                 // fallthrough of != 0 → null
		return pc + 1, false, nil
	}

	// Redundant null check: `if rX == 0` / `if rX != 0` on an *already
	// resolved* map value. The pointer is non-null by construction (the
	// resolving check already sent the null case elsewhere), so the branch
	// is statically decided — follow only the live side, like the kernel
	// verifier's dead-branch pruning.
	if dst.typ == tMapValue && src.typ == tScalar && src.known && src.val == 0 &&
		(op == JmpEq || op == JmpNe) {
		if op == JmpNe {
			return target, false, nil
		}
		return pc + 1, false, nil
	}

	// Packet bounds refinement: `pkt_end OP pkt` is first mirrored to
	// `pkt OP' pkt_end`. A comparison of pkt+off with pkt_end proves
	// [0, off) accessible on the side where pkt+off <= pkt_end; other ops
	// prove nothing. Both sides are always walked, even when a dominating
	// check already covered these bytes.
	if dst.typ == tPacketEnd && src.typ == tPacket {
		dst, src = src, dst
		switch op {
		case JmpGt:
			op = JmpLt
		case JmpLt:
			op = JmpGt
		case JmpGe:
			op = JmpLe
		case JmpLe:
			op = JmpGe
		}
	}
	if dst.typ == tPacket && src.typ == tPacketEnd {
		taken := v.fork(target, st)
		switch op {
		case JmpGt, JmpGe: // fallthrough: pkt+off <= pkt_end
			st.pktRange = max(st.pktRange, int64(dst.off))
		case JmpLt, JmpLe: // taken: pkt+off <= pkt_end
			taken.pktRange = max(taken.pktRange, int64(dst.off))
		}
		return pc + 1, false, nil
	}

	// Pointer comparisons other than the blessed forms are rejected
	// (comparing pointers to scalars would leak addresses).
	dstPtr := dst.typ != tScalar
	srcPtr := src.typ != tScalar
	if dstPtr || srcPtr {
		if dst.typ == tMapValueOrNull || src.typ == tMapValueOrNull {
			return 0, false, reject(pc, "or-null map value may only be compared against 0")
		}
		if !(dstPtr && srcPtr && dst.typ == src.typ) {
			return 0, false, reject(pc, "comparison between %v and %v", dst.typ, src.typ)
		}
		// Same-type pointer comparison (e.g., pkt vs pkt): explore both.
		v.fork(target, st)
		return pc + 1, false, nil
	}

	// Scalar comparison: decide statically when both sides are known.
	// Operands are NOT pre-truncated for JMP32: the walker hands the full
	// 64-bit values to jumpTaken, which truncates only the signed forms —
	// the static decision must match the runtime outcome exactly, or the
	// unexplored side could execute.
	if dst.known && src.known {
		if jumpTaken(op, dst.val, src.val, is32) {
			return target, false, nil
		}
		return pc + 1, false, nil
	}

	taken := v.fork(target, st)
	// Equality refinement: on `if rX == K` taken, rX is the constant.
	if op == JmpEq && src.known && !is32 {
		taken.regs[ins.Dst] = scalarConst(src.val)
	}
	if op == JmpNe && src.known && !is32 {
		st.regs[ins.Dst] = scalarConst(src.val) // fallthrough of != means equal
	}
	return pc + 1, false, nil
}
