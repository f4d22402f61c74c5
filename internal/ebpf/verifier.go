package ebpf

import (
	"fmt"
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
//   - helper calls type-checked against per-helper signatures;
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
	val    uint64 // exact scalar value when known
	off    int64  // pointer offset from region base (stack: <=0 from r10)
	mapIdx int32  // for tMapHandle / tMapValue(_OrNull)
	id     int32  // identity for null-check propagation
}

func scalarUnknown() vreg { return vreg{typ: tScalar} }
func scalarConst(v uint64) vreg {
	return vreg{typ: tScalar, known: true, val: v}
}

// vstate is the abstract machine state at one program point.
type vstate struct {
	regs [NumRegs]vreg
	// pktRange: bytes [0, pktRange) of the packet proven accessible.
	pktRange int64
	// stackInit: bitmap over the 512 stack bytes (bit set = initialized).
	stackInit [StackSize / 8]uint8
	// spills: pointer values spilled to 8-byte-aligned stack slots,
	// keyed by slot index (0..63).
	spills map[int8]vreg
}

func (s *vstate) clone() *vstate {
	n := &vstate{regs: s.regs, pktRange: s.pktRange, stackInit: s.stackInit}
	if len(s.spills) > 0 {
		n.spills = make(map[int8]vreg, len(s.spills))
		for k, v := range s.spills {
			n.spills[k] = v
		}
	}
	return n
}

func (s *vstate) stackMarkInit(off int64, size int) {
	for i := int64(0); i < int64(size); i++ {
		b := StackSize + off + i // off is negative
		s.stackInit[b/8] |= 1 << uint(b%8)
	}
}

func (s *vstate) stackIsInit(off int64, size int) bool {
	for i := int64(0); i < int64(size); i++ {
		b := StackSize + off + i
		if s.stackInit[b/8]&(1<<uint(b%8)) == 0 {
			return false
		}
	}
	return true
}

func (s *vstate) dropSpill(slot int8) {
	if s.spills != nil {
		delete(s.spills, slot)
	}
}

func (s *vstate) setSpill(slot int8, r vreg) {
	if s.spills == nil {
		s.spills = make(map[int8]vreg)
	}
	s.spills[slot] = r
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
	st *vstate
}

type verifier struct {
	prog    *Program
	insns   []Instruction
	budget  int
	used    int
	nextID  int32
	pending []branchPoint
	// facts accumulates the per-PC proof table the compiler specializes on
	// (see facts.go).
	facts *Facts
	// lddwHi marks instruction slots that are the high half of an LDDW
	// pair; jumping into one is rejected.
	lddwHi []bool
}

// verify runs the abstract interpretation and, on success, returns the
// per-PC fact table it accumulated along the way.
func verify(p *Program, budget int) (*Facts, error) {
	v := &verifier{prog: p, insns: p.insns, budget: budget, facts: newFacts(len(p.insns))}
	v.lddwHi = make([]bool, len(p.insns))
	for i := 0; i < len(p.insns); i++ {
		if p.insns[i].IsLDDW() {
			if i+1 >= len(p.insns) {
				return nil, fmt.Errorf("insn %d: truncated LDDW", i)
			}
			v.lddwHi[i+1] = true
			i++
		}
	}

	init := &vstate{}
	init.regs[R1] = vreg{typ: tCtx}
	init.regs[R10] = vreg{typ: tStack, off: 0}
	v.pending = append(v.pending, branchPoint{pc: 0, st: init})

	for len(v.pending) > 0 {
		bp := v.pending[len(v.pending)-1]
		v.pending = v.pending[:len(v.pending)-1]
		if err := v.explore(bp.pc, bp.st); err != nil {
			return nil, err
		}
	}
	return v.facts, nil
}

func (v *verifier) newID() int32 {
	v.nextID++
	return v.nextID
}

func (v *verifier) jumpTarget(pc int, off int16) (int, error) {
	t := pc + 1 + int(off)
	if t < 0 || t >= len(v.insns) {
		return 0, fmt.Errorf("insn %d: jump target %d out of range", pc, t)
	}
	if v.lddwHi[t] {
		return 0, fmt.Errorf("insn %d: jump into the middle of an LDDW pair", pc)
	}
	return t, nil
}

// explore simulates linearly from pc until exit or an undecidable branch
// (which pushes one side and continues down the other).
func (v *verifier) explore(pc int, st *vstate) error {
	for {
		if v.used >= v.budget {
			return fmt.Errorf("analysis budget of %d instructions exceeded; program may be unbounded", v.budget)
		}
		v.used++
		if pc >= len(v.insns) {
			return fmt.Errorf("fell off the end of the program (missing exit)")
		}
		v.facts.observe(pc, st)
		ins := v.insns[pc]
		switch ins.Class() {
		case ClassALU64, ClassALU:
			if err := v.checkALU(pc, ins, st); err != nil {
				return err
			}
			pc++
		case ClassLD:
			if !ins.IsLDDW() {
				return fmt.Errorf("insn %d: unsupported LD mode %#x (legacy ABS/IND not supported)", pc, ins.Op)
			}
			if ins.Dst >= R10 {
				return fmt.Errorf("insn %d: cannot write R%d", pc, ins.Dst)
			}
			if ins.Src == PseudoMapFD {
				st.regs[ins.Dst] = vreg{typ: tMapHandle, mapIdx: ins.Imm}
			} else if ins.Src == 0 {
				st.regs[ins.Dst] = scalarConst(Imm64(ins, v.insns[pc+1]))
			} else {
				return fmt.Errorf("insn %d: unsupported LDDW source %d", pc, ins.Src)
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
			return fmt.Errorf("insn %d: unknown class %#x", pc, ins.Op)
		}
	}
}

func (v *verifier) readReg(pc int, st *vstate, r uint8) (vreg, error) {
	if r >= NumRegs {
		return vreg{}, fmt.Errorf("insn %d: bad register R%d", pc, r)
	}
	if st.regs[r].typ == tInvalid {
		return vreg{}, fmt.Errorf("insn %d: R%d !read_ok (uninitialized)", pc, r)
	}
	return st.regs[r], nil
}

func (v *verifier) writable(pc int, r uint8) error {
	if r >= R10 {
		return fmt.Errorf("insn %d: cannot write R%d (frame pointer is read-only)", pc, r)
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
			return fmt.Errorf("insn %d: 32-bit ALU on %v pointer", pc, dst.typ)
		}
		switch dst.typ {
		case tPacket, tStack, tMapValue:
		default:
			return fmt.Errorf("insn %d: arithmetic on %v is not allowed", pc, dst.typ)
		}
		if src.typ != tScalar || !src.known {
			return fmt.Errorf("insn %d: pointer arithmetic with unknown scalar (only constant offsets are supported)", pc)
		}
		delta := int64(src.val)
		switch op {
		case ALUAdd:
			dst.off += delta
		case ALUSub:
			dst.off -= delta
		default:
			return fmt.Errorf("insn %d: pointer ALU op %#x not allowed (only += / -=)", pc, op)
		}
		// Keep pointer offsets far away from the runtime tag bits.
		const maxPtrOff = 1 << 29
		if dst.off > maxPtrOff || dst.off < -maxPtrOff {
			return fmt.Errorf("insn %d: pointer offset %d out of bounds", pc, dst.off)
		}
		st.regs[ins.Dst] = dst
		return nil
	}
	if src.typ != tScalar {
		// A pointer operand would leak its address into a scalar; a 32-bit
		// MOV would mangle it on the way.
		if op == ALUMov {
			return fmt.Errorf("insn %d: 32-bit MOV of %v pointer", pc, src.typ)
		}
		return fmt.Errorf("insn %d: %v pointer as ALU source operand", pc, src.typ)
	}

	// Scalar arithmetic. A constant result is, by construction, the value
	// the machine computes: the fold is the run-time table itself.
	if (op == ALUDiv || op == ALUMod) && src.known && src.val == 0 {
		return fmt.Errorf("insn %d: division by zero constant", pc)
	}
	r, ok := alu(op, is64, dst.val, src.val)
	if !ok {
		return fmt.Errorf("insn %d: unknown ALU op %#x", pc, op)
	}
	if dst.known && src.known {
		st.regs[ins.Dst] = scalarConst(r)
	} else {
		st.regs[ins.Dst] = scalarUnknown()
	}
	return nil
}

// checkMemAccess validates a load/store of size bytes at base+off and
// returns the region kind for the caller's use.
func (v *verifier) checkMemAccess(pc int, st *vstate, base vreg, off int64, size int, write bool) error {
	switch base.typ {
	case tStack:
		abs := base.off + off
		if abs < -StackSize || abs+int64(size) > 0 {
			return fmt.Errorf("insn %d: stack access at fp%+d size %d out of bounds", pc, abs, size)
		}
		if !write && !st.stackIsInit(abs, size) {
			return fmt.Errorf("insn %d: read of uninitialized stack at fp%+d", pc, abs)
		}
		return nil
	case tPacket:
		a := base.off + off
		if a < 0 || a+int64(size) > st.pktRange {
			return fmt.Errorf("insn %d: packet access at offset %d size %d outside verified range [0,%d) — add a bounds check against pkt_end", pc, a, size, st.pktRange)
		}
		return nil
	case tMapValue:
		vs := int64(v.prog.maps[base.mapIdx].spec.ValueSize)
		a := base.off + off
		if a < 0 || a+int64(size) > vs {
			return fmt.Errorf("insn %d: map value access at offset %d size %d outside value size %d", pc, a, size, vs)
		}
		return nil
	case tMapValueOrNull:
		return fmt.Errorf("insn %d: map value access before null check", pc)
	case tCtx:
		if write {
			return fmt.Errorf("insn %d: context is read-only", pc)
		}
		a := base.off + off
		switch {
		case a == CtxOffData && size == 8, a == CtxOffDataEnd && size == 8:
			return nil
		case (a == CtxOffHash || a == CtxOffPort || a == CtxOffQueue) && size == 4:
			return nil
		}
		return fmt.Errorf("insn %d: invalid context access at offset %d size %d", pc, a, size)
	case tPacketEnd:
		return fmt.Errorf("insn %d: dereference of pkt_end pointer", pc)
	case tMapHandle:
		return fmt.Errorf("insn %d: dereference of map handle", pc)
	case tScalar:
		return fmt.Errorf("insn %d: memory access via scalar (R has no pointer type)", pc)
	}
	return fmt.Errorf("insn %d: memory access via %v", pc, base.typ)
}

func (v *verifier) checkLoad(pc int, ins Instruction, st *vstate) error {
	if (ins.Op & 0xe0) != ModeMEM {
		return fmt.Errorf("insn %d: unsupported LDX mode %#x", pc, ins.Op)
	}
	if err := v.writable(pc, ins.Dst); err != nil {
		return err
	}
	base, err := v.readReg(pc, st, ins.Src)
	if err != nil {
		return err
	}
	size := ins.LoadSize()
	if err := v.checkMemAccess(pc, st, base, int64(ins.Off), size, false); err != nil {
		return err
	}
	switch base.typ {
	case tCtx:
		switch base.off + int64(ins.Off) {
		case CtxOffData:
			st.regs[ins.Dst] = vreg{typ: tPacket, off: 0}
		case CtxOffDataEnd:
			st.regs[ins.Dst] = vreg{typ: tPacketEnd}
		default:
			st.regs[ins.Dst] = scalarUnknown()
		}
	case tStack:
		abs := base.off + int64(ins.Off)
		if size == 8 && abs%8 == 0 {
			if sp, ok := st.spills[int8(abs/8)]; ok {
				st.regs[ins.Dst] = sp
				return nil
			}
		}
		st.regs[ins.Dst] = scalarUnknown()
	default:
		st.regs[ins.Dst] = scalarUnknown()
	}
	return nil
}

func (v *verifier) checkStore(pc int, ins Instruction, st *vstate) error {
	mode := ins.Op & 0xe0
	atomic := ins.Class() == ClassSTX && mode == ModeATOMIC
	if mode != ModeMEM && !atomic {
		return fmt.Errorf("insn %d: unsupported store mode %#x", pc, ins.Op)
	}
	base, err := v.readReg(pc, st, ins.Dst)
	if err != nil {
		return err
	}
	size := ins.LoadSize()
	if atomic && size < 4 {
		return fmt.Errorf("insn %d: atomic add requires 32- or 64-bit width", pc)
	}

	var src vreg
	if ins.Class() == ClassSTX {
		s, err := v.readReg(pc, st, ins.Src)
		if err != nil {
			return err
		}
		src = s
		if atomic && src.typ != tScalar {
			return fmt.Errorf("insn %d: atomic add of %v pointer", pc, src.typ)
		}
	} else {
		src = scalarConst(uint64(int64(ins.Imm)))
	}

	if err := v.checkMemAccess(pc, st, base, int64(ins.Off), size, true); err != nil {
		return err
	}

	// Pointers may only be stored to the stack, 8-byte aligned (spill).
	if src.typ != tScalar {
		if base.typ != tStack {
			return fmt.Errorf("insn %d: leaking %v pointer into %v memory", pc, src.typ, base.typ)
		}
		abs := base.off + int64(ins.Off)
		if size != 8 || abs%8 != 0 {
			return fmt.Errorf("insn %d: pointer spill must be 8-byte aligned and 8 bytes wide", pc)
		}
		st.setSpill(int8(abs/8), src)
		st.stackMarkInit(abs, 8)
		return nil
	}

	if base.typ == tStack {
		abs := base.off + int64(ins.Off)
		// A scalar store over a spill slot demotes it to misc data.
		if abs%8 == 0 && size == 8 {
			st.dropSpill(int8(abs / 8))
		} else {
			st.dropSpill(int8((abs - abs%8) / 8))
		}
		st.stackMarkInit(abs, size)
	}
	return nil
}

// helperSig describes one helper's argument expectations.
type helperSig struct {
	name string
	// arg kinds for r1..r5; unused args must not be inspected.
	args []argKind
	// returns a map value pointer that may be null
	retMapValue bool
}

type argKind int

const (
	argNone argKind = iota
	argCtx
	argMapHandle  // any data map
	argProgArray  // prog_array map handle
	argStackKey   // pointer to stack holding key_size initialized bytes
	argStackValue // pointer to readable mem holding value_size bytes
	argScalar     // any initialized scalar
)

var helperSigs = map[int32]helperSig{
	HelperMapLookup:    {name: "map_lookup_elem", args: []argKind{argMapHandle, argStackKey}, retMapValue: true},
	HelperMapUpdate:    {name: "map_update_elem", args: []argKind{argMapHandle, argStackKey, argStackValue, argScalar}},
	HelperMapDelete:    {name: "map_delete_elem", args: []argKind{argMapHandle, argStackKey}},
	HelperKtimeGetNS:   {name: "ktime_get_ns"},
	HelperPrandomU32:   {name: "get_prandom_u32"},
	HelperGetSmpProcID: {name: "get_smp_processor_id"},
	HelperTailCall:     {name: "tail_call", args: []argKind{argCtx, argProgArray, argScalar}},
}

func (v *verifier) checkCall(pc int, ins Instruction, st *vstate) error {
	sig, ok := helperSigs[ins.Imm]
	if !ok {
		return fmt.Errorf("insn %d: unknown helper %d", pc, ins.Imm)
	}
	var keySize, valueSize uint32
	var mapIdx int32 = -1
	for i, kind := range sig.args {
		r := uint8(R1 + i)
		arg, err := v.readReg(pc, st, r)
		if err != nil {
			return fmt.Errorf("helper %s: %w", sig.name, err)
		}
		switch kind {
		case argCtx:
			if arg.typ != tCtx {
				return fmt.Errorf("insn %d: helper %s arg%d: want ctx, got %v", pc, sig.name, i+1, arg.typ)
			}
		case argMapHandle, argProgArray:
			if arg.typ != tMapHandle {
				return fmt.Errorf("insn %d: helper %s arg%d: want map handle, got %v", pc, sig.name, i+1, arg.typ)
			}
			m := v.prog.maps[arg.mapIdx]
			if kind == argProgArray && m.spec.Type != MapProgArray {
				return fmt.Errorf("insn %d: tail_call requires a prog_array map, got %v", pc, m.spec.Type)
			}
			if kind == argMapHandle && m.spec.Type == MapProgArray {
				return fmt.Errorf("insn %d: helper %s cannot use prog_array map", pc, sig.name)
			}
			mapIdx = arg.mapIdx
			keySize, valueSize = m.spec.KeySize, m.spec.ValueSize
		case argStackKey:
			if arg.typ != tStack {
				return fmt.Errorf("insn %d: helper %s arg%d: key must point to the stack, got %v", pc, sig.name, i+1, arg.typ)
			}
			if err := v.checkMemAccess(pc, st, arg, 0, int(keySize), false); err != nil {
				return fmt.Errorf("helper %s key: %w", sig.name, err)
			}
		case argStackValue:
			switch arg.typ {
			case tStack, tMapValue, tPacket:
				if err := v.checkMemAccess(pc, st, arg, 0, int(valueSize), false); err != nil {
					return fmt.Errorf("helper %s value: %w", sig.name, err)
				}
			default:
				return fmt.Errorf("insn %d: helper %s arg%d: value must be readable memory, got %v", pc, sig.name, i+1, arg.typ)
			}
		case argScalar:
			if arg.typ != tScalar {
				return fmt.Errorf("insn %d: helper %s arg%d: want scalar, got %v", pc, sig.name, i+1, arg.typ)
			}
		}
	}
	// Clobber caller-saved registers.
	for r := R1; r <= R5; r++ {
		st.regs[r] = vreg{}
	}
	if sig.retMapValue {
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
			return 0, false, fmt.Errorf("insn %d: exit in jmp32 class", pc)
		}
		r0 := st.regs[R0]
		if r0.typ == tInvalid {
			return 0, false, fmt.Errorf("insn %d: exit with uninitialized R0", pc)
		}
		if r0.typ != tScalar {
			return 0, false, fmt.Errorf("insn %d: exit with %v pointer in R0 (would leak a kernel address)", pc, r0.typ)
		}
		return 0, true, nil
	case JmpCall:
		if is32 {
			return 0, false, fmt.Errorf("insn %d: call in jmp32 class", pc)
		}
		if err := v.checkCall(pc, ins, st); err != nil {
			return 0, false, err
		}
		return pc + 1, false, nil
	case JmpA:
		if is32 {
			return 0, false, fmt.Errorf("insn %d: ja in jmp32 class", pc)
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
		taken := st.clone()
		taken.markNullResolved(dst.id, op == JmpEq) // == 0 taken → null
		st.markNullResolved(dst.id, op != JmpEq)    // fallthrough of != 0 → null
		v.pending = append(v.pending, branchPoint{pc: target, st: taken})
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

	// Packet bounds refinement: comparisons between a packet pointer and
	// pkt_end prove the range [0, ptr.off) accessible on the side where
	// ptr <= pkt_end. Both sides are always walked, even when a dominating
	// check already covered these bytes.
	if dst.typ == tPacket && src.typ == tPacketEnd {
		taken := st.clone()
		switch op {
		case JmpGt: // taken: pkt+off > end (bad side); fall: pkt+off <= end
			if dst.off > st.pktRange {
				st.pktRange = dst.off
			}
		case JmpGe: // fall: pkt+off < end → off bytes safe (conservative: off)
			if dst.off > st.pktRange {
				st.pktRange = dst.off
			}
		case JmpLe: // taken: pkt+off <= end
			if dst.off > taken.pktRange {
				taken.pktRange = dst.off
			}
		case JmpLt: // taken: pkt+off < end
			if dst.off > taken.pktRange {
				taken.pktRange = dst.off
			}
		}
		v.pending = append(v.pending, branchPoint{pc: target, st: taken})
		return pc + 1, false, nil
	}
	// Symmetric form: pkt_end vs packet pointer.
	if dst.typ == tPacketEnd && src.typ == tPacket {
		taken := st.clone()
		switch op {
		case JmpGe, JmpGt: // taken: end >(=) pkt+off → off bytes safe
			if src.off > taken.pktRange {
				taken.pktRange = src.off
			}
		case JmpLt, JmpLe: // fall: end >(=) pkt+off
			if src.off > st.pktRange {
				st.pktRange = src.off
			}
		}
		v.pending = append(v.pending, branchPoint{pc: target, st: taken})
		return pc + 1, false, nil
	}

	// Pointer comparisons other than the blessed forms are rejected
	// (comparing pointers to scalars would leak addresses).
	dstPtr := dst.typ != tScalar
	srcPtr := src.typ != tScalar
	if dstPtr || srcPtr {
		if dst.typ == tMapValueOrNull || src.typ == tMapValueOrNull {
			return 0, false, fmt.Errorf("insn %d: or-null map value may only be compared against 0", pc)
		}
		if !(dstPtr && srcPtr && dst.typ == src.typ) {
			return 0, false, fmt.Errorf("insn %d: comparison between %v and %v", pc, dst.typ, src.typ)
		}
		// Same-type pointer comparison (e.g., pkt vs pkt): explore both.
		taken := st.clone()
		v.pending = append(v.pending, branchPoint{pc: target, st: taken})
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

	taken := st.clone()
	// Equality refinement: on `if rX == K` taken, rX is the constant.
	if op == JmpEq && src.known && !is32 {
		taken.regs[ins.Dst] = scalarConst(src.val)
	}
	if op == JmpNe && src.known && !is32 {
		st.regs[ins.Dst] = scalarConst(src.val) // fallthrough of != means equal
	}
	v.pending = append(v.pending, branchPoint{pc: target, st: taken})
	return pc + 1, false, nil
}
