// Package ebpf implements the in-kernel virtual machine Syrup uses to run
// untrusted scheduling policies: the classic eBPF instruction set (8-byte
// encoding, eleven 64-bit registers, 512-byte stack), a static verifier
// enforcing the kernel's safety obligations (register typing, packet bounds
// proofs, map-value null checks, bounded execution), an interpreter with
// instruction/cycle accounting, and maps (array, hash, prog-array with tail
// calls) including a sysfs-style pin registry.
//
// Programs can be produced three ways: assembled from the kernel-style text
// dialect (.syr policy files, see Assemble), built programmatically (see
// Builder in asm.go), or constructed directly as []Instruction.
package ebpf

import "encoding/binary"

// Register names. R0 is the return value, R1-R5 are arguments/scratch,
// R6-R9 are callee-saved, R10 is the read-only frame pointer. Only tests
// name R4 and R7-R9; export_test.go declares them.
const (
	R0 = iota
	R1
	R2
	R3
	_ // R4
	R5
	R6
	_ // R7
	_ // R8
	_ // R9
	R10
	NumRegs
)

// StackSize is the per-program stack size in bytes, addressed at negative
// offsets from R10.
const StackSize = 512

// Instruction classes (low 3 opcode bits).
const (
	ClassLD    = 0x00
	ClassLDX   = 0x01
	ClassST    = 0x02
	ClassSTX   = 0x03
	ClassALU   = 0x04
	ClassJMP   = 0x05
	ClassJMP32 = 0x06
	ClassALU64 = 0x07
)

// Size field for load/store (bits 3-4).
const (
	SizeW  = 0x00 // 4 bytes
	SizeH  = 0x08 // 2 bytes
	SizeB  = 0x10 // 1 byte
	SizeDW = 0x18 // 8 bytes
)

// widths is the one table of access widths, indexed by the size field
// shifted down: the byte count the builders take and the type .syr spells
// it with.
var widths = [4]struct {
	bytes int
	name  string
}{SizeW >> 3: {4, "u32"}, SizeH >> 3: {2, "u16"}, SizeB >> 3: {1, "u8"}, SizeDW >> 3: {8, "u64"}}

// Mode field for load/store (bits 5-7).
const (
	ModeIMM    = 0x00 // used by LDDW (64-bit immediate load)
	ModeMEM    = 0x60
	ModeATOMIC = 0xc0 // XADD only in this implementation
)

// Source bit for ALU/JMP (bit 3).
const (
	SrcK = 0x00 // use Imm
	SrcX = 0x08 // use Src register
)

// ALU operations (bits 4-7).
const (
	ALUAdd  = 0x00
	ALUSub  = 0x10
	ALUMul  = 0x20
	ALUDiv  = 0x30
	ALUOr   = 0x40
	ALUAnd  = 0x50
	ALULsh  = 0x60
	ALURsh  = 0x70
	ALUNeg  = 0x80
	ALUMod  = 0x90
	ALUXor  = 0xa0
	ALUMov  = 0xb0
	ALUArsh = 0xc0
)

// JMP operations (bits 4-7).
const (
	JmpA    = 0x00
	JmpEq   = 0x10
	JmpGt   = 0x20
	JmpGe   = 0x30
	JmpSet  = 0x40
	JmpNe   = 0x50
	JmpSGt  = 0x60
	JmpSGe  = 0x70
	JmpCall = 0x80
	JmpExit = 0x90
	JmpLt   = 0xa0
	JmpLe   = 0xb0
	JmpSLt  = 0xc0
	JmpSLe  = 0xd0
)

// alu and jumpTaken are the ISA's one definition of what an ALU op
// computes and when a conditional jump is taken. The verifier's constant
// folding and branch deciding and the walker (walk.go) evaluate through
// them, so a constant the verifier believes is by construction the value
// the machine computes.
// TestALUTable and TestJumpTable hold both to literal vectors.

// alu returns what `dst OP= src` leaves in dst; src is a register value or
// the sign-extended immediate, and NEG ignores it. The 32-bit class
// truncates both operands, masks shift counts to 5 bits instead of 6 and
// zero-extends the result. Division by zero yields 0 and modulo by zero
// leaves dst. ok is false for an opcode that is not an ALU operation.
func alu(op uint8, is64 bool, dst, src uint64) (r uint64, ok bool) {
	shift := src & 63
	if !is64 {
		dst, src, shift = uint64(uint32(dst)), uint64(uint32(src)), src&31
	}
	switch op {
	case ALUAdd:
		r = dst + src
	case ALUSub:
		r = dst - src
	case ALUMul:
		r = dst * src
	case ALUDiv:
		if src != 0 {
			r = dst / src
		}
	case ALUMod:
		r = dst
		if src != 0 {
			r = dst % src
		}
	case ALUOr:
		r = dst | src
	case ALUAnd:
		r = dst & src
	case ALUXor:
		r = dst ^ src
	case ALULsh:
		r = dst << shift
	case ALURsh:
		r = dst >> shift
	case ALUArsh:
		if is64 {
			r = uint64(int64(dst) >> shift)
		} else {
			r = uint64(int32(dst) >> shift)
		}
	case ALUNeg:
		r = -dst
	case ALUMov:
		r = src
	default:
		return 0, false
	}
	if !is64 {
		r = uint64(uint32(r))
	}
	return r, true
}

// jumpTaken reports whether `if a OP b` branches. Operands arrive at full
// width in both jump classes: JMP32 narrows only the signed comparisons,
// to the operands' low 32 bits. An opcode that is not a comparison never
// branches.
func jumpTaken(op uint8, a, b uint64, is32 bool) bool {
	sa, sb := int64(a), int64(b)
	if is32 {
		sa, sb = int64(int32(uint32(a))), int64(int32(uint32(b)))
	}
	switch op {
	case JmpEq:
		return a == b
	case JmpNe:
		return a != b
	case JmpGt:
		return a > b
	case JmpGe:
		return a >= b
	case JmpLt:
		return a < b
	case JmpLe:
		return a <= b
	case JmpSGt:
		return sa > sb
	case JmpSGe:
		return sa >= sb
	case JmpSLt:
		return sa < sb
	case JmpSLe:
		return sa <= sb
	case JmpSet:
		return a&b != 0
	}
	return false
}

// PseudoMapFD marks the Src field of an LDDW instruction whose immediate is
// a map file descriptor to be resolved at load time (mirrors
// BPF_PSEUDO_MAP_FD).
const PseudoMapFD = 1

// Helper function numbers, matching the Linux UAPI where one exists.
const (
	HelperMapLookup    = 1
	HelperMapUpdate    = 2
	HelperMapDelete    = 3
	HelperKtimeGetNS   = 5
	HelperPrandomU32   = 7
	HelperTailCall     = 12
	HelperGetSmpProcID = 8
)

// argKind is what a helper takes in one argument register.
type argKind uint8

const (
	argCtx        argKind = iota // the ctx
	argMapHandle                 // a handle of a map that is not a prog_array
	argProgArray                 // a prog_array's handle
	argStackKey                  // a stack pointer to the map's key_size initialized bytes
	argStackValue                // a pointer to the map's value_size readable bytes
	argScalar                    // any initialized scalar
)

// helper is one helper's row, after the kernel's struct bpf_func_proto:
// its .syr name, its argument kinds from R1 on, whether R0 comes back as a
// map value or NULL, and its body, run once rs.call resolved those kinds.
type helper struct {
	name        string
	args        []argKind
	retMapValue bool
	body        func(*runState, *Program) (*Program, error)
	reg         [argScalar + 1]uint8 // each kind's register (0: none), so rs.call need not walk args
}

// helpers is the one table of helpers, indexed by helper number: read by
// the verifier (checkCall), the executor (rs.call) and the text form.
var helpers = [...]helper{
	HelperMapLookup:    row("map_lookup_elem", true, (*runState).mapLookup, argMapHandle, argStackKey),
	HelperMapUpdate:    row("map_update_elem", false, (*runState).mapUpdate, argMapHandle, argStackKey, argStackValue, argScalar),
	HelperMapDelete:    row("map_delete_elem", false, (*runState).mapDelete, argMapHandle, argStackKey),
	HelperKtimeGetNS:   row("ktime_get_ns", false, (*runState).ktimeGetNS),
	HelperPrandomU32:   row("get_prandom_u32", false, (*runState).prandomU32),
	HelperGetSmpProcID: row("get_smp_processor_id", false, (*runState).smpProcessorID),
	HelperTailCall:     row("tail_call", false, (*runState).tailCall, argCtx, argProgArray, argScalar),
}

// row is a helper's row, each kind's register indexed from its args.
func row(name string, retMapValue bool, body func(*runState, *Program) (*Program, error), args ...argKind) helper {
	h := helper{name: name, args: args, retMapValue: retMapValue, body: body}
	for i, kind := range args {
		h.reg[kind] = uint8(R1 + i)
	}
	return h
}

// helperAt is helper id's row, or the one refusal of a number no helper
// has, which the verifier places at its slot and the executor faults with.
func helperAt(id int32) (*helper, *posError) {
	if uint32(id) < uint32(len(helpers)) && helpers[id].name != "" {
		return &helpers[id], nil
	}
	return nil, unknownHelper(id)
}

// unknownHelper is kept out of line, so that helperAt inlines into rs.call.
//
//go:noinline
func unknownHelper(id int32) *posError { return reject(-1, "unknown helper %d", id) }

// Verdict sentinels returned by schedule programs. Any other return value is
// an index into the hook's executor map.
const (
	VerdictPass uint32 = 0xffffffff
	VerdictDrop uint32 = 0xfffffffe
)

// Instruction is one decoded eBPF instruction. LDDW occupies two
// Instruction slots: the first carries the low 32 bits in Imm, the second
// (with Op==0) carries the high 32 bits.
type Instruction struct {
	Op  uint8
	Dst uint8
	Src uint8
	Off int16
	Imm int32
}

// Class extracts the instruction class.
func (ins Instruction) Class() uint8 { return ins.Op & 0x07 }

// IsLDDW reports whether this is the first half of a 64-bit immediate load.
func (ins Instruction) IsLDDW() bool {
	return ins.Op == ClassLD|ModeIMM|SizeDW
}

// LoadSize returns the access width in bytes of a load/store instruction.
func (ins Instruction) LoadSize() int { return widths[ins.Op&0x18>>3].bytes }

// Imm64 combines the two halves of an LDDW pair.
func Imm64(lo, hi Instruction) uint64 {
	return uint64(uint32(lo.Imm)) | uint64(uint32(hi.Imm))<<32
}

// Encode serializes instructions to the classic 8-byte wire format.
func Encode(insns []Instruction) []byte {
	out := make([]byte, 8*len(insns))
	for i, ins := range insns {
		b := out[i*8:]
		b[0] = ins.Op
		b[1] = ins.Src<<4 | ins.Dst&0x0f
		binary.LittleEndian.PutUint16(b[2:], uint16(ins.Off))
		binary.LittleEndian.PutUint32(b[4:], uint32(ins.Imm))
	}
	return out
}
