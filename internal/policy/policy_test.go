package policy

import (
	"os"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/sim"
)

// mkCtx builds a packet context carrying an application header.
func mkCtx(reqType uint64, userID, keyHash uint32) *ebpf.Ctx {
	payload := EncodeHeader(reqType, userID, keyHash, 99)
	wire := make([]byte, 8+len(payload))
	copy(wire[8:], payload)
	return &ebpf.Ctx{Packet: wire, Port: 9000}
}

func TestAllBuiltinsAssembleAndVerify(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			defines := map[string]int64{}
			if name == NameSITA {
				defines = SITADefines(6)
			}
			p, _, err := Load(name, defines, nil)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			// The loaded stream is the assembled stream.
			f, err := ebpf.Assemble(MustSource(name), defines)
			if err != nil {
				t.Fatal(err)
			}
			if p.Len() == 0 || p.Len() != len(f.Insns) {
				t.Fatalf("loaded %d instructions, assembled %d", p.Len(), len(f.Insns))
			}
		})
	}
}

// TestShippedStreamsPinned pins what `syrup-policy disasm builtin:<name>`
// prints for every shipped policy at its .const defaults. Nothing rewrites
// a policy after it is assembled, so an instruction order that matters —
// the pairs written adjacent so the compiler fuses them — lives in the
// .syr source, and this is what notices it moving.
func TestShippedStreamsPinned(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p, _, err := Load(name, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("testdata/streams/" + name + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if got := p.TextSource(); got != string(want) {
				t.Fatalf("stream moved\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

func TestSourceUnknown(t *testing.T) {
	if _, err := Source("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	b := EncodeHeader(ReqSCAN, 7, 0xdeadbeef, 12345)
	typ, user, kh, id, ok := DecodeHeader(b)
	if !ok || typ != ReqSCAN || user != 7 || kh != 0xdeadbeef || id != 12345 {
		t.Fatalf("round trip: %d %d %x %d %v", typ, user, kh, id, ok)
	}
	if _, _, _, _, ok := DecodeHeader(b[:10]); ok {
		t.Fatal("truncated header decoded")
	}
}

func TestRoundRobinPolicy(t *testing.T) {
	p, _, err := Load(NameRoundRobin, map[string]int64{"NUM_THREADS": 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v, _, err := p.Run(mkCtx(ReqGET, 0, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(i%4) {
			t.Fatalf("call %d → %d", i, v)
		}
	}
}

func TestHashPolicyDeterministicAndBounded(t *testing.T) {
	p, _, err := Load(NameHash, map[string]int64{"NUM_EXECUTORS": 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := mkCtx(ReqGET, 0, 0)
	ctx.Packet[0] = 0x12 // vary the UDP header
	first, _, _ := p.Run(ctx, nil)
	for i := 0; i < 5; i++ {
		v, _, _ := p.Run(ctx, nil)
		if v != first {
			t.Fatal("hash policy not deterministic")
		}
	}
	if first >= 6 {
		t.Fatalf("hash verdict %d out of range", first)
	}
	// Short packet → PASS.
	v, _, _ := p.Run(&ebpf.Ctx{Packet: []byte{1, 2, 3}}, nil)
	if v != ebpf.VerdictPass {
		t.Fatalf("short packet verdict %#x", v)
	}
}

func TestSITAPolicySplitsByType(t *testing.T) {
	p, _, err := Load(NameSITA, SITADefines(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, _, _ := p.Run(mkCtx(ReqSCAN, 0, 0), nil)
		if v != 0 {
			t.Fatalf("SCAN → socket %d", v)
		}
	}
	seen := map[uint32]bool{}
	for i := 0; i < 20; i++ {
		v, _, _ := p.Run(mkCtx(ReqGET, 0, 0), nil)
		if v == 0 || v >= 6 {
			t.Fatalf("GET → socket %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("GETs used %d sockets, want 5", len(seen))
	}
}

func TestScanAvoidPolicy(t *testing.T) {
	p, maps, err := Load(NameScanAvoid, map[string]int64{"NUM_THREADS": 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scanState := maps["scan_state"]
	if scanState == nil {
		t.Fatal("scan_state map missing")
	}
	// Mark threads 0-2 as serving SCANs; only thread 3 serves GETs.
	for slot := uint32(0); slot < 3; slot++ {
		scanState.UpdateUint64(slot, ReqSCAN)
	}
	scanState.UpdateUint64(3, ReqGET)
	env := &ebpf.Env{Prandom: func() uint32 { return uint32(envSeq()) }}
	hits3 := 0
	for i := 0; i < 200; i++ {
		v, _, err := p.Run(mkCtx(ReqGET, 0, 0), env)
		if err != nil {
			t.Fatal(err)
		}
		if v == 3 {
			hits3++
		}
	}
	// Random probing with 4 slots and 4 tries finds the GET thread with
	// probability 1-(3/4)^4 ≈ 68%; anything clearly above uniform (25%)
	// shows avoidance works.
	if hits3 < 100 {
		t.Fatalf("SCAN Avoid picked the GET thread only %d/200 times", hits3)
	}
	// All-GET state: any verdict is fine, never PASS/DROP.
	for slot := uint32(0); slot < 4; slot++ {
		scanState.UpdateUint64(slot, ReqGET)
	}
	v, _, _ := p.Run(mkCtx(ReqGET, 0, 0), env)
	if v >= 4 {
		t.Fatalf("verdict %d out of range", v)
	}
}

var seqState uint32

func envSeq() uint32 {
	seqState = seqState*1664525 + 1013904223
	return seqState >> 8
}

func TestTokenPolicyConsumesAndDrops(t *testing.T) {
	p, maps, err := Load(NameToken, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tokens := maps["tokens"]
	tokens.UpdateUint64(5, 3) // user 5 has 3 tokens
	for i := 0; i < 3; i++ {
		v, _, _ := p.Run(mkCtx(ReqGET, 5, 0), nil)
		if v != ebpf.VerdictPass {
			t.Fatalf("request %d with tokens → %#x", i, v)
		}
	}
	v, _, _ := p.Run(mkCtx(ReqGET, 5, 0), nil)
	if v != ebpf.VerdictDrop {
		t.Fatalf("request without tokens → %#x, want DROP", v)
	}
	if got, _ := tokens.LookupUint64(5); got != 0 {
		t.Fatalf("token balance = %d", got)
	}
	// A different user still at zero drops immediately.
	v, _, _ = p.Run(mkCtx(ReqGET, 6, 0), nil)
	if v != ebpf.VerdictDrop {
		t.Fatalf("zero-balance user → %#x", v)
	}
}

func TestMicaHashPolicy(t *testing.T) {
	p, _, err := Load(NameMicaHash, map[string]int64{"NUM_EXECUTORS": 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for kh := uint32(0); kh < 32; kh++ {
		v, _, _ := p.Run(mkCtx(ReqGET, 0, kh), nil)
		if v != kh%8 {
			t.Fatalf("key hash %d → %d", kh, v)
		}
	}
}

func TestTokenAgentReplenishesAndGifts(t *testing.T) {
	eng := sim.New(1)
	tokens := ebpf.MustNewMap(ebpf.MapSpec{Name: "tokens", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	agent := &TokenAgent{Tokens: tokens, LSUser: 0, BEUser: 1, PerEpoch: 100, Epoch: 100 * sim.Microsecond}
	agent.Start(eng)
	// Consume 60 LS tokens mid-epoch.
	eng.CallAt(50*sim.Microsecond, func(any, uint64) {
		for i := 0; i < 60; i++ {
			tokens.AddUint64(0, ^uint64(0)) // -1
		}
	}, nil, 0)
	eng.RunUntil(150 * sim.Microsecond)
	// After the first epoch tick: 40 leftover gifted to BE, LS reset to 100.
	if v, _ := tokens.LookupUint64(1); v != 40 {
		t.Fatalf("BE gift = %d, want 40", v)
	}
	if v, _ := tokens.LookupUint64(0); v != 100 {
		t.Fatalf("LS balance = %d, want 100", v)
	}
}

func TestGetPriorityPolicy(t *testing.T) {
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: 3})
	types := map[int]uint64{}
	mk := func(name string, typ uint64) *kernel.Thread {
		t := m.NewThread(name, 1, 0, func(th *kernel.Thread) { th.Exit() })
		types[t.ID] = typ
		return t
	}
	pol := &GetPriority{TypeOf: func(t *kernel.Thread) uint64 { return types[t.ID] }}

	scanRunning := mk("scan-running", ReqSCAN)
	getWaiting := mk("get", ReqGET)
	scanWaiting := mk("scan", ReqSCAN)

	// One idle core, one core running a SCAN.
	cpus := []ghost.CPUView{
		{ID: 0, Curr: scanRunning},
		{ID: 1, Curr: nil},
	}
	out := pol.Schedule(0, []*kernel.Thread{getWaiting, scanWaiting}, cpus)
	if len(out) != 1 {
		t.Fatalf("placements = %+v", out)
	}
	// GET takes the idle core without preemption; the SCAN has nowhere.
	if out[0].Thread != getWaiting || out[0].CPU != 1 || out[0].Preempt {
		t.Fatalf("placement = %+v", out[0])
	}

	// No idle cores: GET must preempt the SCAN core.
	cpus = []ghost.CPUView{{ID: 0, Curr: scanRunning}}
	out = pol.Schedule(0, []*kernel.Thread{getWaiting}, cpus)
	if len(out) != 1 || !out[0].Preempt || out[0].CPU != 0 {
		t.Fatalf("preempting placement = %+v", out)
	}

	// GET-running cores are never preempted.
	getRunning := mk("get-running", ReqGET)
	cpus = []ghost.CPUView{{ID: 0, Curr: getRunning}}
	out = pol.Schedule(0, []*kernel.Thread{getWaiting}, cpus)
	if len(out) != 0 {
		t.Fatalf("GET preempted a GET: %+v", out)
	}
}

func TestFIFOPolicy(t *testing.T) {
	eng := sim.New(1)
	m := kernel.New(eng, kernel.Config{NumCPUs: 2})
	a := m.NewThread("a", 1, 0, func(th *kernel.Thread) { th.Exit() })
	b := m.NewThread("b", 1, 0, func(th *kernel.Thread) { th.Exit() })
	c := m.NewThread("c", 1, 0, func(th *kernel.Thread) { th.Exit() })
	out := (&FIFO{}).Schedule(0, []*kernel.Thread{a, b, c}, []ghost.CPUView{{ID: 0}, {ID: 1}})
	if len(out) != 2 || out[0].Thread != a || out[1].Thread != b {
		t.Fatalf("fifo placements = %+v", out)
	}
}

// Table-2 style sanity: every built-in policy's bytecode is compact.
func TestPolicyInstructionCounts(t *testing.T) {
	for _, name := range Names() {
		defines := map[string]int64{}
		if name == NameSITA {
			defines = SITADefines(6)
		}
		p, _, err := Load(name, defines, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() > 120 {
			t.Errorf("%s has %d instructions; expected compact policies", name, p.Len())
		}
	}
}
