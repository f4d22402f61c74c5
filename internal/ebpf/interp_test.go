package ebpf

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, p *Program, ctx *Ctx, env *Env) uint32 {
	t.Helper()
	ret, _, err := p.Run(ctx, env)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return ret
}

func TestInterpConstReturn(t *testing.T) {
	p := wantAccept(t, []Instruction{MovImm(R0, 1234), Exit()}, nil)
	if got := run(t, p, &Ctx{}, nil); got != 1234 {
		t.Fatalf("ret = %d", got)
	}
}

func TestInterpALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		op   uint8
		a, b int32
		want uint64
	}{
		{"add", ALUAdd, 7, 5, 12},
		{"sub", ALUSub, 7, 5, 2},
		{"mul", ALUMul, 7, 5, 35},
		{"div", ALUDiv, 35, 5, 7},
		{"mod", ALUMod, 17, 5, 2},
		{"or", ALUOr, 0xf0, 0x0f, 0xff},
		{"and", ALUAnd, 0xff, 0x0f, 0x0f},
		{"xor", ALUXor, 0xff, 0x0f, 0xf0},
		{"lsh", ALULsh, 1, 8, 256},
		{"rsh", ALURsh, 256, 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := wantAccept(t, []Instruction{
				MovImm(R0, tc.a),
				ALUImm(tc.op, R0, tc.b),
				Exit(),
			}, nil)
			got, _, err := p.RunRet64(&Ctx{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("%s(%d,%d) = %d, want %d", tc.name, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestInterpDivModByZeroRuntime(t *testing.T) {
	// Division by a zero *register* passes verification (value unknown)
	// and must follow BPF semantics at runtime: div→0, mod→dst.
	mkProg := func(op uint8) *Program {
		return wantAccept(t, []Instruction{
			Ldx(4, R2, R1, CtxOffHash), // unknown scalar, will be 0
			MovImm(R0, 42),
			ALUReg(op, R0, R2),
			Exit(),
		}, nil)
	}
	if got := run(t, mkProg(ALUDiv), &Ctx{Hash: 0}, nil); got != 0 {
		t.Fatalf("div by zero = %d, want 0", got)
	}
	if got := run(t, mkProg(ALUMod), &Ctx{Hash: 0}, nil); got != 42 {
		t.Fatalf("mod by zero = %d, want 42 (dst unchanged)", got)
	}
}

func TestInterpArshSignExtension(t *testing.T) {
	p := wantAccept(t, []Instruction{
		MovImm(R0, -8),
		ALUImm(ALUArsh, R0, 1),
		Exit(),
	}, nil)
	got, _, err := p.RunRet64(&Ctx{}, nil)
	if err != nil || int64(got) != -4 {
		t.Fatalf("arsh(-8,1) = %d err=%v", int64(got), err)
	}
}

// TestInterpPacketReads: a checked packet pointer reads the packet's
// bytes, a packet too short for the check takes the other path, and a
// store through the pointer writes the packet.
func TestInterpPacketReads(t *testing.T) {
	// Read a u16 at offset 2 (port field of a UDP header, say).
	p := wantAccept(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		Ldx(8, R3, R1, CtxOffDataEnd),
		MovReg(R4, R2),
		ALUImm(ALUAdd, R4, 4),
		JmpReg(JmpGt, R4, R3, 2),
		Ldx(2, R0, R2, 2),
		Exit(),
		MovImm(R0, -1),
		Exit(),
	}, nil)
	pkt := []byte{0, 0, 0x34, 0x12}
	if got := run(t, p, &Ctx{Packet: pkt}, nil); got != 0x1234 {
		t.Fatalf("packet read = %#x", got)
	}
	// Short packet takes the PASS path.
	if got := run(t, p, &Ctx{Packet: []byte{1, 2}}, nil); got != VerdictPass {
		t.Fatalf("short packet = %#x, want PASS", got)
	}
	// Empty packet too.
	if got := run(t, p, &Ctx{}, nil); got != VerdictPass {
		t.Fatalf("empty packet = %#x, want PASS", got)
	}

	// A store through the checked pointer writes the packet.
	p = wantAccept(t, []Instruction{
		Ldx(8, R2, R1, CtxOffData),
		Ldx(8, R3, R1, CtxOffDataEnd),
		MovReg(R4, R2),
		ALUImm(ALUAdd, R4, 1),
		JmpReg(JmpGt, R4, R3, 2),
		StImm(1, R2, 0, 0x5a),
		Ja(0),
		MovImm(R0, 0),
		Exit(),
	}, nil)
	pkt = []byte{0}
	run(t, p, &Ctx{Packet: pkt}, nil)
	if pkt[0] != 0x5a {
		t.Fatalf("packet write not visible: %#x", pkt[0])
	}
}

func TestInterpCtxMetadata(t *testing.T) {
	p := wantAccept(t, []Instruction{
		Ldx(4, R2, R1, CtxOffHash),
		Ldx(4, R3, R1, CtxOffPort),
		Ldx(4, R4, R1, CtxOffQueue),
		MovReg(R0, R2),
		ALUReg(ALUAdd, R0, R3),
		ALUReg(ALUAdd, R0, R4),
		Exit(),
	}, nil)
	if got := run(t, p, &Ctx{Hash: 100, Port: 20, Queue: 3}, nil); got != 123 {
		t.Fatalf("ctx metadata sum = %d", got)
	}
}

func TestInterpMapLookupUpdateRoundTrip(t *testing.T) {
	tb, m, fd := u64MapTable(t, 4)
	if err := m.UpdateUint64(2, 7777); err != nil {
		t.Fatal(err)
	}
	// Program: return value at key 2, incrementing it by 1 via direct write.
	insns := lookupThen(fd, 2,
		JmpImm(JmpEq, R0, 0, 5),
		Ldx(8, R6, R0, 0),
		MovReg(R7, R6),
		ALUImm(ALUAdd, R7, 1),
		Stx(8, R0, R7, 0),
		Ja(1),
		MovImm(R6, 0),
		MovReg(R0, R6),
		Exit(),
	)
	p := wantAccept(t, insns, tb)
	if got := run(t, p, &Ctx{}, nil); got != 7777 {
		t.Fatalf("lookup = %d", got)
	}
	if v, _ := m.LookupUint64(2); v != 7778 {
		t.Fatalf("in-place map write not visible from userspace: %d", v)
	}
	// Run again: sees the incremented value.
	if got := run(t, p, &Ctx{}, nil); got != 7778 {
		t.Fatalf("second lookup = %d", got)
	}
}

func TestInterpXAdd(t *testing.T) {
	tb, m, fd := u64MapTable(t, 1)
	insns := lookupThen(fd, 0,
		JmpImm(JmpEq, R0, 0, 3),
		MovImm(R2, -1), // add -1: token consume
		XAdd(8, R0, R2, 0),
		Ja(0),
		MovImm(R0, 0),
		Exit(),
	)
	p := wantAccept(t, insns, tb)
	m.UpdateUint64(0, 10)
	for i := 0; i < 3; i++ {
		run(t, p, &Ctx{}, nil)
	}
	if v, _ := m.LookupUint64(0); v != 7 {
		t.Fatalf("xadd result = %d, want 7", v)
	}
}

func TestInterpHelperUpdateDelete(t *testing.T) {
	h := MustNewMap(MapSpec{Name: "h", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	tb := NewMapTable()
	fd := tb.Register(h)
	// Store key=9 value=55 via helper, then delete it, return 0.
	insns := []Instruction{
		StImm(4, R10, -4, 9),
		StImm(8, R10, -16, 55),
	}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		MovReg(R3, R10),
		ALUImm(ALUAdd, R3, -16),
		MovImm(R4, 0),
		Call(HelperMapUpdate),
		MovReg(R6, R0),
		MovReg(R0, R6),
		Exit(),
	)
	p := wantAccept(t, insns, tb)
	if got := run(t, p, &Ctx{}, nil); got != 0 {
		t.Fatalf("map_update returned %d", got)
	}
	if v, ok := h.LookupUint64(9); !ok || v != 55 {
		t.Fatalf("helper update not visible: %d %v", v, ok)
	}
}

func TestInterpPrandomAndKtime(t *testing.T) {
	p := wantAccept(t, []Instruction{
		Call(HelperPrandomU32),
		MovReg(R6, R0),
		Call(HelperKtimeGetNS),
		ALUReg(ALUAdd, R0, R6),
		Exit(),
	}, nil)
	seq := []uint32{11, 22}
	i := 0
	env := &Env{
		Prandom: func() uint32 { v := seq[i%2]; i++; return v },
		Ktime:   func() uint64 { return 1000 },
	}
	if got := run(t, p, &Ctx{}, env); got != 1011 {
		t.Fatalf("prandom+ktime = %d", got)
	}
	// nil env must not crash (deterministic defaults).
	run(t, p, &Ctx{}, nil)
}

func TestInterpSmpProcessorID(t *testing.T) {
	p := wantAccept(t, []Instruction{Call(HelperGetSmpProcID), Exit()}, nil)
	if got := run(t, p, &Ctx{}, &Env{CPUID: 5}); got != 5 {
		t.Fatalf("cpu id = %d", got)
	}
}

func TestInterpTailCall(t *testing.T) {
	tb, pa, fd := progArrayTable("pa", 4)

	target := wantAccept(t, []Instruction{MovImm(R0, 77), Exit()}, nil)
	if err := pa.UpdateProg(1, target); err != nil {
		t.Fatal(err)
	}

	root := wantAccept(t, tailCallOr(fd, 1, -1), tb)
	ret, stats, err := root.Run(&Ctx{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 77 {
		t.Fatalf("tail call returned %d", ret)
	}
	if stats.TailCalls != 1 {
		t.Fatalf("tail calls = %d", stats.TailCalls)
	}

	// Missing slot → fall through.
	root2 := wantAccept(t, tailCallOr(fd, 3, -1), tb)
	if got := run(t, root2, &Ctx{}, nil); got != VerdictPass {
		t.Fatalf("missing tail call slot returned %#x", got)
	}
}

func TestInterpTailCallLimit(t *testing.T) {
	tb, pa, fd := progArrayTable("pa", 1)
	// Self tail-calling program; exhausting the budget is a runtime
	// fault (a runaway chain), not a silent fall-through — the hook
	// layer counts it and fails open.
	p := wantAccept(t, tailCallOr(fd, 0, -1), tb)
	if err := pa.UpdateProg(0, p); err != nil {
		t.Fatal(err)
	}
	_, stats, err := p.Run(&Ctx{}, nil)
	if err == nil || !strings.Contains(err.Error(), "tail call budget exhausted") {
		t.Fatalf("self tail call chain err = %v, want budget fault", err)
	}
	if stats.TailCalls != MaxTailCalls {
		t.Fatalf("tail calls = %d, want %d", stats.TailCalls, MaxTailCalls)
	}
	if f := p.Stats().Faults; f != 1 {
		t.Fatalf("program faults = %d, want 1", f)
	}
}

func TestInterpStatsAccounting(t *testing.T) {
	// Nothing rewrites a verified stream; the disassembly pins that it is
	// loaded verbatim, so the counts below are the source's.
	insns := []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		ALUImm(ALUAdd, R0, 1),
		Exit(),
	}
	p, err := Load("test", insns, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.insns, insns) {
		t.Fatalf("load rewrote the stream:\n%s\nwant:\n%s", p.TextSource(), (&AsmFile{Insns: insns}).Text())
	}
	_, stats, err := p.Run(&Ctx{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Insns != 3 {
		t.Fatalf("insns executed = %d, want 3", stats.Insns)
	}
	s := p.Stats()
	if s.Runs != 1 || s.InsnsExecuted != 3 {
		t.Fatalf("cumulative stats = %+v", s)
	}
	if p.MeanInsnsPerRun() != 3 {
		t.Fatalf("mean insns = %v", p.MeanInsnsPerRun())
	}
}

// Property: a verified modulo-N program always returns a value < N for any
// packet content (the executor-index safety the paper relies on).
func TestPropertyHashModBounded(t *testing.T) {
	const n = 6
	p := wantAccept(t, []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		ALUImm(ALUMod, R0, n),
		Exit(),
	}, nil)
	f := func(hash uint32) bool {
		got := run(t, p, &Ctx{Hash: hash}, nil)
		return got < n && got == hash%n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ALU64 add/sub/xor on the VM match Go's uint64 semantics.
func TestPropertyALUMatchesGo(t *testing.T) {
	mk := func(op uint8) *Program {
		// r0 = pkt[0:8] op pkt[8:16]
		return wantAccept(t, []Instruction{
			Ldx(8, R2, R1, CtxOffData),
			Ldx(8, R3, R1, CtxOffDataEnd),
			MovReg(R4, R2),
			ALUImm(ALUAdd, R4, 16),
			JmpReg(JmpGt, R4, R3, 4),
			Ldx(8, R0, R2, 0),
			Ldx(8, R5, R2, 8),
			ALUReg(op, R0, R5),
			Exit(),
			MovImm(R0, 0),
			Exit(),
		}, nil)
	}
	progs := map[string]*Program{"add": mk(ALUAdd), "sub": mk(ALUSub), "xor": mk(ALUXor)}
	f := func(a, b uint64) bool {
		pkt := make([]byte, 16)
		binary.LittleEndian.PutUint64(pkt, a)
		binary.LittleEndian.PutUint64(pkt[8:], b)
		for name, p := range progs {
			got, _, err := p.RunRet64(&Ctx{Packet: pkt}, nil)
			if err != nil {
				return false
			}
			var want uint64
			switch name {
			case "add":
				want = a + b
			case "sub":
				want = a - b
			case "xor":
				want = a ^ b
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
