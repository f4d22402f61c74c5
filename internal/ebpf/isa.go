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

import (
	"encoding/binary"
	"fmt"
)

// Register names. R0 is the return value, R1-R5 are arguments/scratch,
// R6-R9 are callee-saved, R10 is the read-only frame pointer.
const (
	R0 = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
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

// HelperName maps helper numbers to the names accepted by the assembler.
var HelperName = map[int32]string{
	HelperMapLookup:    "map_lookup_elem",
	HelperMapUpdate:    "map_update_elem",
	HelperMapDelete:    "map_delete_elem",
	HelperKtimeGetNS:   "ktime_get_ns",
	HelperPrandomU32:   "get_prandom_u32",
	HelperTailCall:     "tail_call",
	HelperGetSmpProcID: "get_smp_processor_id",
}

// HelperByName is the inverse of HelperName.
var HelperByName = func() map[string]int32 {
	m := make(map[string]int32, len(HelperName))
	for n, s := range HelperName {
		m[s] = n
	}
	return m
}()

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
func (ins Instruction) LoadSize() int {
	switch ins.Op & 0x18 {
	case SizeB:
		return 1
	case SizeH:
		return 2
	case SizeW:
		return 4
	default:
		return 8
	}
}

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

var aluOpName = map[uint8]string{
	ALUAdd: "+=", ALUSub: "-=", ALUMul: "*=", ALUDiv: "/=", ALUOr: "|=",
	ALUAnd: "&=", ALULsh: "<<=", ALURsh: ">>=", ALUMod: "%=", ALUXor: "^=",
	ALUMov: "=", ALUArsh: "s>>=",
}

var jmpOpName = map[uint8]string{
	JmpEq: "==", JmpNe: "!=", JmpGt: ">", JmpGe: ">=", JmpLt: "<",
	JmpLe: "<=", JmpSGt: "s>", JmpSGe: "s>=", JmpSLt: "s<", JmpSLe: "s<=",
	JmpSet: "&",
}

func sizeName(op uint8) string {
	switch op & 0x18 {
	case SizeB:
		return "u8"
	case SizeH:
		return "u16"
	case SizeW:
		return "u32"
	default:
		return "u64"
	}
}

// Disassemble renders one instruction in the assembler's text dialect.
// For LDDW pairs pass the following instruction as next.
func Disassemble(ins Instruction, next *Instruction) string {
	reg := func(r uint8) string { return fmt.Sprintf("r%d", r) }
	switch ins.Class() {
	case ClassALU64, ClassALU:
		prefix := "r"
		if ins.Class() == ClassALU {
			prefix = "w"
		}
		op := ins.Op & 0xf0
		if op == ALUNeg {
			return fmt.Sprintf("%s%d = -%s%d", prefix, ins.Dst, prefix, ins.Dst)
		}
		name, ok := aluOpName[op]
		if !ok {
			return fmt.Sprintf("<invalid alu %#x>", ins.Op)
		}
		if ins.Op&SrcX != 0 {
			return fmt.Sprintf("%s%d %s %s%d", prefix, ins.Dst, name, prefix, ins.Src)
		}
		return fmt.Sprintf("%s%d %s %d", prefix, ins.Dst, name, ins.Imm)
	case ClassLD:
		if ins.IsLDDW() && next != nil {
			if ins.Src == PseudoMapFD {
				return fmt.Sprintf("r%d = map_fd(%d)", ins.Dst, ins.Imm)
			}
			return fmt.Sprintf("r%d = %d ll", ins.Dst, Imm64(ins, *next))
		}
		return fmt.Sprintf("<ld %#x>", ins.Op)
	case ClassLDX:
		return fmt.Sprintf("%s = *(%s *)(%s %+d)", reg(ins.Dst), sizeName(ins.Op), reg(ins.Src), ins.Off)
	case ClassST:
		return fmt.Sprintf("*(%s *)(%s %+d) = %d", sizeName(ins.Op), reg(ins.Dst), ins.Off, ins.Imm)
	case ClassSTX:
		if ins.Op&0xe0 == ModeATOMIC {
			return fmt.Sprintf("lock *(%s *)(%s %+d) += %s", sizeName(ins.Op), reg(ins.Dst), ins.Off, reg(ins.Src))
		}
		return fmt.Sprintf("*(%s *)(%s %+d) = %s", sizeName(ins.Op), reg(ins.Dst), ins.Off, reg(ins.Src))
	case ClassJMP, ClassJMP32:
		op := ins.Op & 0xf0
		if ins.Class() == ClassJMP {
			switch op {
			case JmpA:
				return fmt.Sprintf("goto %+d", ins.Off)
			case JmpCall:
				if name, ok := HelperName[ins.Imm]; ok {
					return "call " + name
				}
				return fmt.Sprintf("call %d", ins.Imm)
			case JmpExit:
				return "exit"
			}
		} else {
			// ja/call/exit have no 32-bit form.
			switch op {
			case JmpA, JmpCall, JmpExit:
				return fmt.Sprintf("<invalid jmp32 %#x>", ins.Op)
			}
			reg = func(r uint8) string { return fmt.Sprintf("w%d", r) }
		}
		name, ok := jmpOpName[op]
		if !ok {
			return fmt.Sprintf("<invalid jmp %#x>", ins.Op)
		}
		if ins.Op&SrcX != 0 {
			return fmt.Sprintf("if %s %s %s goto %+d", reg(ins.Dst), name, reg(ins.Src), ins.Off)
		}
		return fmt.Sprintf("if %s %s %d goto %+d", reg(ins.Dst), name, ins.Imm, ins.Off)
	}
	return fmt.Sprintf("<op %#x>", ins.Op)
}

// DisassembleProgram renders a whole instruction stream.
func DisassembleProgram(insns []Instruction) string {
	var out string
	for i := 0; i < len(insns); i++ {
		var next *Instruction
		if insns[i].IsLDDW() && i+1 < len(insns) {
			next = &insns[i+1]
		}
		out += fmt.Sprintf("%4d: %s\n", i, Disassemble(insns[i], next))
		if next != nil {
			i++
		}
	}
	return out
}
