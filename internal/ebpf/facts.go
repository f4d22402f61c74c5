package ebpf

// Facts is the verifier's per-PC fact table: everything the abstract
// interpretation proved about each instruction, met (in the lattice sense)
// across every path that reached it. The verifier already derives constant
// scalars, pointer offsets, packet bounds and null-resolution to discharge
// its safety obligations; Facts keeps the ones decode pins kinds on
// (walk.go: pin, stackWindow) — a register's region type, its constant
// offset from the region base, and the map behind a handle — so it consumes
// them instead of re-deriving (or worse, guessing) them. A fact at pc P
// holds on *every* execution that reaches P — that is the soundness
// contract each pinned kind leans on. Nothing rewrites a program after
// verification, so the table always describes the stream that runs.

// FactType mirrors the verifier's register type lattice. FactNone means the
// register either was uninitialized or had conflicting types across paths —
// no fact is available.
type FactType uint8

const (
	FactNone FactType = iota
	FactScalar
	FactCtx
	FactPacket
	FactPacketEnd
	FactStack
	FactMapHandle
	FactMapValue
	FactMapValueOrNull
)

// RegFact is what is known about one register at one program point, valid on
// every path reaching that point.
type RegFact struct {
	Type FactType
	// OffKnown: the pointer offset from the region base is exactly Off on
	// every path (pointer types only).
	OffKnown bool
	Off      int64
	// MapIdx: resolved map index for map handle / map value types, -1 when
	// it differs across paths.
	MapIdx int32
}

// insnFacts is the fact set for one instruction slot (the low slot for an
// LDDW pair; the high slot records no visits of its own).
type insnFacts struct {
	// visits counts how many distinct abstract paths executed this
	// instruction. 0 means the verifier proved it unreachable from the
	// entry state.
	visits int
	// in holds per-register facts on entry to the instruction.
	in [NumRegs]RegFact
}

// Facts is the exported per-PC table for one verified instruction stream.
type Facts struct {
	insns []insnFacts
}

func newFacts(n int) *Facts {
	f := &Facts{insns: make([]insnFacts, n)}
	for i := range f.insns {
		f.insns[i].in = unknownRegs
	}
	return f
}

var unknownRegs = func() [NumRegs]RegFact {
	var rs [NumRegs]RegFact
	for i := range rs {
		rs[i].MapIdx = -1
	}
	return rs
}()

// Len returns the number of instruction slots covered.
func (f *Facts) Len() int { return len(f.insns) }

// Reg returns the entry fact for register r at pc: no fact (FactNone) when
// either is out of range or no abstract path reached pc.
func (f *Facts) Reg(pc int, r uint8) RegFact {
	if pc < 0 || pc >= len(f.insns) || r >= NumRegs {
		return RegFact{MapIdx: -1}
	}
	return f.insns[pc].in[r]
}

// observe folds one visit's entry state into the table.
func (f *Facts) observe(pc int, st *vstate) {
	if pc < 0 || pc >= len(f.insns) {
		return
	}
	slot := &f.insns[pc]
	if slot.visits == 0 {
		for r := uint8(0); r < NumRegs; r++ {
			slot.in[r] = regFactOf(st.regs[r])
		}
	} else {
		for r := uint8(0); r < NumRegs; r++ {
			slot.in[r] = meetReg(slot.in[r], regFactOf(st.regs[r]))
		}
	}
	slot.visits++
}

func regFactOf(r vreg) RegFact {
	f := RegFact{MapIdx: -1}
	switch r.typ {
	case tScalar:
		f.Type = FactScalar
	case tCtx:
		f.Type = FactCtx
		f.OffKnown = true
		f.Off = r.off
	case tPacket:
		f.Type = FactPacket
		f.OffKnown = true
		f.Off = r.off
	case tPacketEnd:
		f.Type = FactPacketEnd
	case tStack:
		f.Type = FactStack
		f.OffKnown = true
		f.Off = r.off
	case tMapHandle:
		f.Type = FactMapHandle
		f.MapIdx = r.mapIdx
	case tMapValue:
		f.Type = FactMapValue
		f.OffKnown = true
		f.Off = r.off
		f.MapIdx = r.mapIdx
	case tMapValueOrNull:
		f.Type = FactMapValueOrNull
		f.MapIdx = r.mapIdx
	default:
		f.Type = FactNone
	}
	return f
}

func meetReg(a, b RegFact) RegFact {
	if a.Type != b.Type {
		return RegFact{Type: FactNone, MapIdx: -1}
	}
	out := a
	if !(a.OffKnown && b.OffKnown && a.Off == b.Off) {
		out.OffKnown = false
		out.Off = 0
	}
	if a.MapIdx != b.MapIdx {
		out.MapIdx = -1
	}
	return out
}
