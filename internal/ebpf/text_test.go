package ebpf

import (
	"slices"
	"strings"
	"testing"
)

const rrSource = `
; Round-robin over NUM_THREADS sockets (paper Fig. 5a).
.const NUM_THREADS 6
.map rr_state array 4 8 1

  *(u32 *)(r10 - 4) = 0
  r1 = map(rr_state)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r6 %= NUM_THREADS
  r0 = r6
  exit
pass:
  r0 = PASS
  exit
`

// everyForm writes each line form of the dialect at least once: the
// assembler benchmark's second source.
const everyForm = `
.const LIMIT 0x40
.map counters array 4 8 4
.map flows hash 8 8 64
  r6 = *(u64 *)(r1 + 0)
  r7 = *(u64 *)(r1 + 8)
  w2 = w6
  w2 += 16
  r3 = r6
  r3 s>>= 2
  r3 = -r3
  w3 = -w3
  if r6 > r7 goto out
  if w2 s< LIMIT goto out
  if r3 != r2 goto out
  if w3 & w2 goto out
  r4 = 0x1234567890 ll
  *(u32 *)(r10 - 4) = 0
  *(u64 *)(r10 - 16) = r4
  r1 = map(counters)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto out
  r5 = 1
  lock *(u64 *)(r0 + 0) += r5
  call 7
  goto out
out:
  r0 = PASS
  exit
`

func assembleLoad(t *testing.T, src string, defines map[string]int64) (*Program, map[string]*Map) {
	t.Helper()
	p, maps, err := loadSource("test", src, defines, nil)
	if err != nil {
		t.Fatalf("loadSource: %v", err)
	}
	return p, maps
}

func TestAssembleRoundRobin(t *testing.T) {
	p, maps := assembleLoad(t, rrSource, nil)
	if maps["rr_state"] == nil {
		t.Fatal("rr_state map not created")
	}
	// Six invocations walk 0..5, then wrap.
	for i := 0; i < 13; i++ {
		got := run(t, p, &Ctx{}, nil)
		if want := uint32(i % 6); got != want {
			t.Fatalf("call %d: got %d want %d", i, got, want)
		}
	}
}

func TestAssembleDefinesOverrideConsts(t *testing.T) {
	p, _ := assembleLoad(t, rrSource, map[string]int64{"NUM_THREADS": 3})
	seen := map[uint32]bool{}
	for i := 0; i < 9; i++ {
		seen[run(t, p, &Ctx{}, nil)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("NUM_THREADS override ignored: %v", seen)
	}
}

func TestAssembleSourceLineCount(t *testing.T) {
	f, err := Assemble(rrSource, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 15 statements + 1 label + .const + .map = 18 non-comment lines.
	if f.SourceLines != 18 {
		t.Fatalf("SourceLines = %d", f.SourceLines)
	}
}

func TestAssembleCommentStyles(t *testing.T) {
	src := `
r0 = 1   ; semicolon
# whole-line hash
// whole-line slashes
r0 += 1  // trailing slashes
r0 += 1  # trailing hash
exit
`
	p, _ := assembleLoad(t, src, nil)
	if got := run(t, p, &Ctx{}, nil); got != 3 {
		t.Fatalf("ret = %d", got)
	}
}

func TestAssembleAllALUOps(t *testing.T) {
	src := `
r0 = 100
r0 += 10
r0 -= 5
r0 *= 2
r0 /= 3
r0 %= 50
r0 |= 8
r0 &= 0xff
r0 ^= 1
r0 <<= 2
r0 >>= 1
r0 s>>= 1
r2 = r0
r0 = r2
exit
`
	p, _ := assembleLoad(t, src, nil)
	want := uint32((((((((((100 + 10 - 5) * 2 / 3) % 50) | 8) & 0xff) ^ 1) << 2) >> 1) >> 1))
	if got := run(t, p, &Ctx{}, nil); got != want {
		t.Fatalf("alu chain = %d want %d", got, want)
	}
}

// TestAssemble32BitOps: `w0 += 1` is the builders' 32-bit add, and on
// all ones it carries out of the low half and zero-extends to 0.
func TestAssemble32BitOps(t *testing.T) {
	p, _ := assembleLoad(t, "r0 = -1\nw0 += 1\nexit\n", nil)
	if want := []Instruction{MovImm(R0, -1), ALU32Imm(ALUAdd, R0, 1), Exit()}; !slices.Equal(p.insns, want) {
		t.Fatalf("assembled %v, want %v", p.insns, want)
	}
	got, _, err := p.RunRet64(&Ctx{}, nil)
	if err != nil || got != 0 {
		t.Fatalf("w0 += 1 on -1 = %#x err=%v", got, err)
	}
}

// TestAssembleCondJumps: every conditional jump's symbol, in both widths,
// against an immediate and a register, assembles to the builders'
// encoding, and a 32-bit one runs on the low halves. The symbols are
// spelled here, not read from jmpSymbol, which the renderer reads too, so
// a round trip cannot see two of them swapped.
func TestAssembleCondJumps(t *testing.T) {
	for _, tc := range []struct {
		sym string
		op  uint8
	}{
		{"==", JmpEq}, {"!=", JmpNe}, {">", JmpGt}, {">=", JmpGe}, {"<", JmpLt}, {"<=", JmpLe},
		{"s>", JmpSGt}, {"s>=", JmpSGe}, {"s<", JmpSLt}, {"s<=", JmpSLe}, {"&", JmpSet},
	} {
		src := strings.ReplaceAll("if r1 OP -3 goto out\nif r1 OP r2 goto out\nif w1 OP 7 goto out\nif w1 OP w2 goto out\nout:\nexit", "OP", tc.sym)
		want := []Instruction{JmpImm(tc.op, R1, -3, 3), JmpReg(tc.op, R1, R2, 2), Jmp32Imm(tc.op, R1, 7, 1), Jmp32Reg(tc.op, R1, R2, 0), Exit()}
		if f, err := Assemble(src, nil); err != nil || !slices.Equal(f.Insns, want) {
			t.Errorf("%q: err %v, got %v, want %v", tc.sym, err, f, want)
		}
	}
	// A 32-bit jump compares the low halves only: all ones is 0xffffffff.
	p, _ := assembleLoad(t, "r0 = -1\nif w0 == 0xffffffff goto yes\nr0 = 0\nexit\nyes:\nr0 = 7\nexit\n", nil)
	if got := run(t, p, &Ctx{}, nil); got != 7 {
		t.Fatalf("jmp32 = %d", got)
	}
}

// TestAssembleWidths: each width's name assembles to its size field in a
// load, a register store and an immediate store, and renders back by that
// name. The round trips cannot see two names swapped, because the parser
// and the renderer read the same widths table; the builders take bytes.
func TestAssembleWidths(t *testing.T) {
	for _, w := range []struct {
		name string
		size int
	}{{"u8", 1}, {"u16", 2}, {"u32", 4}, {"u64", 8}} {
		src := strings.ReplaceAll("r0 = *(uN *)(r10 -8)\n*(uN *)(r10 -8) = r0\n*(uN *)(r10 -8) = 1\nexit", "uN", w.name)
		want := []Instruction{Ldx(w.size, R0, R10, -8), Stx(w.size, R10, R0, -8), StImm(w.size, R10, -8, 1), Exit()}
		f, err := Assemble(src, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if text := f.Text(); !slices.Equal(f.Insns, want) || text != "  "+strings.ReplaceAll(src, "\n", "\n  ")+"\n" {
			t.Errorf("%s: got %v, want %v, rendered:\n%s", w.name, f.Insns, want, text)
		}
	}
}

func TestAssembleNeg(t *testing.T) {
	src := `
r0 = 5
r0 = -r0
exit
`
	p, _ := assembleLoad(t, src, nil)
	got, _, err := p.RunRet64(&Ctx{}, nil)
	if err != nil || int64(got) != -5 {
		t.Fatalf("neg = %d", int64(got))
	}
}

func TestAssembleLddwImm(t *testing.T) {
	src := `
r0 = 0x1234567890 ll
exit
`
	p, _ := assembleLoad(t, src, nil)
	got, _, err := p.RunRet64(&Ctx{}, nil)
	if err != nil || got != 0x1234567890 {
		t.Fatalf("lddw = %#x", got)
	}
}

func TestAssemblePacketPolicy(t *testing.T) {
	// The paper's SITA policy shape: peek the request type at payload
	// byte 8, route SCANs (type 2) to socket 0, round-robin GETs over the
	// rest.
	src := `
.const NUM_THREADS 6
.const SCAN 2
.map state array 4 8 1

  r6 = *(u64 *)(r1 + 0)
  r7 = *(u64 *)(r1 + 8)
  r2 = r6
  r2 += 16
  if r2 > r7 goto pass
  r8 = *(u64 *)(r6 + 8)
  if r8 != SCAN goto get
  r0 = 0
  exit
get:
  *(u32 *)(r10 - 4) = 0
  r1 = map(state)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r6 %= 5
  r6 += 1
  r0 = r6
  exit
pass:
  r0 = PASS
  exit
`
	p, _ := assembleLoad(t, src, nil)
	scanPkt := make([]byte, 16)
	scanPkt[8] = 2
	if got := run(t, p, &Ctx{Packet: scanPkt}, nil); got != 0 {
		t.Fatalf("SCAN routed to %d", got)
	}
	getPkt := make([]byte, 16)
	getPkt[8] = 1
	seen := map[uint32]bool{}
	for i := 0; i < 10; i++ {
		v := run(t, p, &Ctx{Packet: getPkt}, nil)
		if v == 0 {
			t.Fatal("GET routed to the SCAN socket")
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("GETs not spread over 5 sockets: %v", seen)
	}
	if got := run(t, p, &Ctx{Packet: []byte{1}}, nil); got != VerdictPass {
		t.Fatalf("short packet = %#x", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"garbage", "r0 = 1\nwhat is this\nexit", "cannot parse"},
		{"undefined-label", "r0 = 0\ngoto nowhere\nexit", "undefined label"},
		{"dup-label", "a:\na:\nr0 = 0\nexit", "duplicate label"},
		{"undeclared-map", "r1 = map(nope)\nr0 = 0\nexit", "undeclared map"},
		{"dup-map", ".map m array 4 8 1\n.map m array 4 8 1\nr0 = 0\nexit", "duplicate map"},
		{"bad-imm", "r0 = zork\nexit", "bad immediate"},
		{"bad-reg", "r77 = 0\nexit", "bad register"},
		{"negative-reg", "r0 = r-1\nexit", "bad register"},
		{"bad-const", ".const X zork\nr0 = 0\nexit", "bad constant"},
		{"bad-map-type", ".map m sock 4 8 1\nr0 = 0\nexit", "unknown map type"},
		{"map-size-wraps", ".map w array 4 4294967304 4294967297\nr0 = 0\nexit", "does not fit in 32 bits"},
		{"empty", "; nothing\n", "empty program"},
		{"neg-mismatch", "r0 = 1\nr0 = -r1\nexit", "same source"},
		{"trailing-operand", "r0 = 1 2\nexit", "cannot parse"},
		{"trailing-exit", "r0 = 0\nexit now", "cannot parse"},
		{"trailing-goto", "a:\nr0 = 0\ngoto a b\nexit", "cannot parse"},
		{"trailing-map", ".map m array 4 8 1\nr1 = map(m) x\nr0 = 0\nexit", "cannot parse"},
		{"trailing-call", "call map_lookup_elem x\nexit", "cannot parse"},
		{"trailing-store", "r0 = 0\n*(u64 *)(r10 - 8) = r0 r1\nexit", "cannot parse"},
		{"signed-register", "r0 = r+1\nexit", "bad register"},
		{"signed-register-operand", "r0 += -r1\nexit", "bad immediate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src, nil)
			if err == nil {
				t.Fatalf("assembled bad source")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q missing %q", err, tc.frag)
			}
		})
	}
}

// TestAssembleRefusesTyposAndWideConstants: a line that starts with '.'
// is a .const or a .map in its declared form, or an error naming its line;
// and a named constant or a deploy-time define meets the range check of
// the literal it stands for in every 32-bit slot. Each source here used to
// assemble: the directive declared nothing, the constant lost its high
// bits.
func TestAssembleRefusesTyposAndWideConstants(t *testing.T) {
	cases := []struct {
		name, src string
		defines   map[string]int64
		want      string
	}{
		{"misspelt-const", "r0 = 0\n.cosnt N 6\nexit", nil, `line 2: unknown directive ".cosnt"`},
		{"misspelt-map", ".mapm array 4 8 1\nr0 = 0\nexit", nil, `line 1: unknown directive ".mapm"`},
		{"bare-dot", ". const N 6\nr0 = 0\nexit", nil, `line 1: unknown directive "."`},
		{"const-extra-field", ".const N 6 7\nr0 = 0\nexit", nil, `line 1: bad directive ".const N 6 7"`},
		{"const-no-value", ".const N\nr0 = 0\nexit", nil, `line 1: bad directive ".const N"`},
		{"map-short", "r0 = 0\n.map m array 4 8\nexit", nil, `line 2: bad directive ".map m array 4 8"`},
		{"wide-alu", ".const BIG 99999999999\nr0 = BIG\nexit", nil, "line 2: constant BIG is 99999999999"},
		{"wide-alu32", ".const BIG 99999999999\nw0 += BIG\nexit", nil, "line 2: constant BIG is 99999999999"},
		{"wide-jump", ".const BIG 99999999999\nif r0 > BIG goto out\nout:\nexit", nil, "line 2: constant BIG is 99999999999"},
		{"wide-store", ".const BIG 99999999999\n*(u64 *)(r10 - 8) = BIG\nr0 = 0\nexit", nil, "line 2: constant BIG is 99999999999"},
		{"wide-negated", ".const U32 0xffffffff\nr0 = -U32\nexit", nil, "line 2: constant U32 is -4294967295"},
		{"wide-define", "r0 = 0\nr0 %= NUM_THREADS\nexit", map[string]int64{"NUM_THREADS": 99999999999}, "line 2: constant NUM_THREADS is 99999999999"},
		{"wide-define-over-const", ".const NUM_THREADS 6\nr0 = NUM_THREADS\nexit", map[string]int64{"NUM_THREADS": -1<<31 - 1}, "line 2: constant NUM_THREADS is -2147483649"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src, tc.defines)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// The literals those constants stand for are refused the same way, and
	// a 64-bit load keeps every bit of a wide constant.
	for _, src := range []string{"r0 = 99999999999\nexit", "r0 = -0xffffffff\nexit"} {
		if _, err := Assemble(src, nil); err == nil || !strings.Contains(err.Error(), "does not fit in 32 bits") {
			t.Errorf("%q: err = %v, want the 32-bit range refused", src, err)
		}
	}
	f, err := Assemble(".const BIG 99999999999\nr0 = BIG ll\nr0 = 0xffffffff\nexit", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append(LoadImm64(R0, 99999999999), ALUImm(ALUMov, R0, -1), Exit())
	if !slices.Equal(f.Insns, want) {
		t.Fatalf("got %v, want %v", f.Insns, want)
	}
}

// TestAssembleConstantsNamedLikeRegisters: a register is r or w and
// digits, so a constant may start with either letter, in every operand
// slot, declared in the file or defined at deploy time.
func TestAssembleConstantsNamedLikeRegisters(t *testing.T) {
	src := `
.const rate 5
.const wmax 7
  r0 = rate
  r0 += wmax
  w0 -= wmax
  *(u64 *)(r10 - 8) = rate
  if r0 == rate goto out
  if w0 s> wmax goto out
out:
  exit
`
	want := []Instruction{
		ALUImm(ALUMov, R0, 5), ALUImm(ALUAdd, R0, 7), ALU32Imm(ALUSub, R0, 7), StImm(8, R10, -8, 5),
		JmpImm(JmpEq, R0, 5, 1), Jmp32Imm(JmpSGt, R0, 7, 0), Exit(),
	}
	f, err := Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Insns, want) {
		t.Fatalf("got:\n%swant:\n%s", f.Text(), (&AsmFile{Insns: want}).Text())
	}
	f, err = Assemble("r0 = rate\nexit", map[string]int64{"rate": 9})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Instruction{ALUImm(ALUMov, R0, 9), Exit()}; !slices.Equal(f.Insns, want) {
		t.Fatalf("defined constant: got:\n%s", f.Text())
	}
}

func TestInstantiateSharesExistingMaps(t *testing.T) {
	shared := MustNewMap(MapSpec{Name: "rr_state", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	shared.UpdateUint64(0, 4) // start the round robin at 4
	p, maps, err := loadSource("rr", rrSource, nil, map[string]*Map{"rr_state": shared})
	if err != nil {
		t.Fatal(err)
	}
	if maps["rr_state"] != shared {
		t.Fatal("existing map not reused")
	}
	if got := run(t, p, &Ctx{}, nil); got != 4%6 {
		t.Fatalf("shared state ignored: %d", got)
	}
}

func TestInstantiateRejectsIncompatibleRedeclaration(t *testing.T) {
	other := MustNewMap(MapSpec{Name: "rr_state", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	_, _, err := loadSource("rr", rrSource, nil, map[string]*Map{"rr_state": other})
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("incompatible map reuse not rejected: %v", err)
	}
}

func TestAssembledSourceRejectedByVerifier(t *testing.T) {
	// Valid syntax, unsafe semantics: unchecked packet read.
	src := `
r2 = *(u64 *)(r1 + 0)
r0 = *(u64 *)(r2 + 0)
exit
`
	_, _, err := loadSource("unsafe", src, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "line 3: insn 1: packet access") || !strings.Contains(err.Error(), "bounds check") {
		t.Fatalf("unsafe .syr accepted or refused without its line: %v", err)
	}
}

// TestRejectionNamesItsSourceLine: a verifier rejection names the source
// line that holds the faulting slot, past comments, blank lines, labels,
// declarations and two-slot LDDW lines.
func TestRejectionNamesItsSourceLine(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"comments and blank lines",
			"; unchecked packet read\n\n# twice\nr2 = *(u64 *)(r1 + 0) // pkt_start\n\nr0 = *(u64 *)(r2 + 0)\nexit\n",
			"line 6: insn 1: packet access"},
		{"a label line",
			"r0 = 0\nif r0 == 0 goto out\nout:\nr0 = r7\nexit\n",
			"line 4: insn 2: R7 !read_ok"},
		{"declarations",
			".const N 4\n.map m array 4 8 1\nr0 = N\nr0 = r9\nexit\n",
			"line 4: insn 1: R9 !read_ok"},
		{"after an LDDW pair",
			"r1 = 12345678901 ll\nr0 = r1\nr0 = r8\nexit\n",
			"line 3: insn 3: R8 !read_ok"},
		{"after a map reference",
			".map m array 4 8 1\nr1 = map(m)\nr0 = *(u64 *)(r1 + 0)\nexit\n",
			"line 3: insn 2: dereference of map handle"},
		{"off the end of an LDDW pair",
			"r0 = 1 ll\n",
			"line 1: insn 1: fell off the end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := loadSource("lines", tc.src, nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
		})
	}
}
