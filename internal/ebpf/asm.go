package ebpf

// Instruction constructors. These are the building blocks tests and
// trusted in-tree programs (like syrupd's dispatcher) use to assemble
// instruction streams directly; untrusted policies arrive as .syr text and
// go through Assemble.

// MovImm sets dst = imm (64-bit, sign-extended).
func MovImm(dst uint8, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | ALUMov | SrcK, Dst: dst, Imm: imm}
}

// MovReg sets dst = src.
func MovReg(dst, src uint8) Instruction {
	return Instruction{Op: ClassALU64 | ALUMov | SrcX, Dst: dst, Src: src}
}

// ALUImm applies dst = dst <op> imm (64-bit).
func ALUImm(op uint8, dst uint8, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | op | SrcK, Dst: dst, Imm: imm}
}

// ALUReg applies dst = dst <op> src (64-bit).
func ALUReg(op uint8, dst, src uint8) Instruction {
	return Instruction{Op: ClassALU64 | op | SrcX, Dst: dst, Src: src}
}

// ALU32Imm applies the 32-bit form.
func ALU32Imm(op uint8, dst uint8, imm int32) Instruction {
	return Instruction{Op: ClassALU | op | SrcK, Dst: dst, Imm: imm}
}

// ALU32Reg applies the 32-bit register form.
func ALU32Reg(op uint8, dst, src uint8) Instruction {
	return Instruction{Op: ClassALU | op | SrcX, Dst: dst, Src: src}
}

// Neg sets dst = -dst.
func Neg(dst uint8) Instruction {
	return Instruction{Op: ClassALU64 | ALUNeg, Dst: dst}
}

// Neg32 sets the low half of dst to its negation, zeroing the high half.
func Neg32(dst uint8) Instruction {
	return Instruction{Op: ClassALU | ALUNeg, Dst: dst}
}

// LoadMapFD emits the LDDW pair referencing a map: by its index in the
// declared maps for Verify, or by fd in a MapTable for Load.
func LoadMapFD(dst uint8, ref int32) []Instruction {
	return []Instruction{
		{Op: ClassLD | ModeIMM | SizeDW, Dst: dst, Src: PseudoMapFD, Imm: ref},
		{},
	}
}

// LoadImm64 emits the LDDW pair for a 64-bit constant.
func LoadImm64(dst uint8, v uint64) []Instruction {
	return []Instruction{
		{Op: ClassLD | ModeIMM | SizeDW, Dst: dst, Imm: int32(uint32(v))},
		{Imm: int32(uint32(v >> 32))},
	}
}

// sizeBits is the size field of an access of size bytes; any size but 1,
// 2 and 4 is 8.
func sizeBits(size int) uint8 {
	for i, w := range widths {
		if w.bytes == size {
			return uint8(i) << 3
		}
	}
	return SizeDW
}

// Ldx emits dst = *(size*)(src + off).
func Ldx(size int, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassLDX | ModeMEM | sizeBits(size), Dst: dst, Src: src, Off: off}
}

// Stx emits *(size*)(dst + off) = src.
func Stx(size int, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassSTX | ModeMEM | sizeBits(size), Dst: dst, Src: src, Off: off}
}

// StImm emits *(size*)(dst + off) = imm.
func StImm(size int, dst uint8, off int16, imm int32) Instruction {
	return Instruction{Op: ClassST | ModeMEM | sizeBits(size), Dst: dst, Off: off, Imm: imm}
}

// XAdd emits lock *(size*)(dst + off) += src.
func XAdd(size int, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassSTX | ModeATOMIC | sizeBits(size), Dst: dst, Src: src, Off: off}
}

// JmpImm emits if dst <op> imm goto +off.
func JmpImm(op uint8, dst uint8, imm int32, off int16) Instruction {
	return Instruction{Op: ClassJMP | op | SrcK, Dst: dst, Off: off, Imm: imm}
}

// JmpReg emits if dst <op> src goto +off.
func JmpReg(op uint8, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassJMP | op | SrcX, Dst: dst, Src: src, Off: off}
}

// Jmp32Imm emits if wdst <op> imm goto +off, comparing low halves.
func Jmp32Imm(op uint8, dst uint8, imm int32, off int16) Instruction {
	return Instruction{Op: ClassJMP32 | op | SrcK, Dst: dst, Off: off, Imm: imm}
}

// Jmp32Reg emits if wdst <op> wsrc goto +off.
func Jmp32Reg(op uint8, dst, src uint8, off int16) Instruction {
	return Instruction{Op: ClassJMP32 | op | SrcX, Dst: dst, Src: src, Off: off}
}

// Ja emits an unconditional goto +off.
func Ja(off int16) Instruction {
	return Instruction{Op: ClassJMP | JmpA, Off: off}
}

// Call emits a helper call.
func Call(helper int32) Instruction {
	return Instruction{Op: ClassJMP | JmpCall, Imm: helper}
}

// Exit emits the program return.
func Exit() Instruction {
	return Instruction{Op: ClassJMP | JmpExit}
}
