package ebpf

import (
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

func assembleLoad(t *testing.T, src string, defines map[string]int64) (*Program, map[string]*Map) {
	t.Helper()
	p, maps, err := AssembleAndLoad("test", src, defines, nil)
	if err != nil {
		t.Fatalf("AssembleAndLoad: %v", err)
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

func TestAssemble32BitOps(t *testing.T) {
	src := `
r0 = -1
w0 += 1
exit
`
	p, _ := assembleLoad(t, src, nil)
	got, _, err := p.RunRet64(&Ctx{}, nil)
	if err != nil || got != 0 {
		t.Fatalf("w0 += 1 on -1 = %#x err=%v", got, err)
	}
}

func TestAssembleCondJumps(t *testing.T) {
	src := `
r0 = 10
if r0 s> 5 goto big
r0 = 0
exit
big:
r0 = 1
exit
`
	p, _ := assembleLoad(t, src, nil)
	if got := run(t, p, &Ctx{}, nil); got != 1 {
		t.Fatalf("signed jump = %d", got)
	}
}

func TestAssembleJmp32(t *testing.T) {
	src := `
r0 = -1      ; 64-bit all ones
if w0 == 0xffffffff goto yes
r0 = 0
exit
yes:
r0 = 7
exit
`
	p, _ := assembleLoad(t, src, nil)
	if got := run(t, p, &Ctx{}, nil); got != 7 {
		t.Fatalf("jmp32 = %d", got)
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
		{"bad-const", ".const X zork\nr0 = 0\nexit", "bad constant"},
		{"bad-map-type", ".map m sock 4 8 1\nr0 = 0\nexit", "unknown map type"},
		{"map-size-wraps", ".map w array 4 4294967304 4294967297\nr0 = 0\nexit", "does not fit in 32 bits"},
		{"empty", "; nothing\n", "empty program"},
		{"neg-mismatch", "r0 = 1\nr0 = -r1\nexit", "same source"},
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

func TestInstantiateSharesExistingMaps(t *testing.T) {
	shared := MustNewMap(MapSpec{Name: "rr_state", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	shared.UpdateUint64(0, 4) // start the round robin at 4
	p, maps, err := AssembleAndLoad("rr", rrSource, nil, map[string]*Map{"rr_state": shared})
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
	_, _, err := AssembleAndLoad("rr", rrSource, nil, map[string]*Map{"rr_state": other})
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
	_, _, err := AssembleAndLoad("unsafe", src, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "bounds check") {
		t.Fatalf("unsafe .syr accepted: %v", err)
	}
}
