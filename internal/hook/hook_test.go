package hook

import (
	"strings"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/sim"
	"syrup/internal/trace"
)

// newHost is a host of its own, untraced and unarmed.
func newHost() *Host { return &Host{Eng: sim.New(1)} }

// everyNth is a chaos plan firing site on every n-th event.
func everyNth(h *Host, site faults.Site, n uint64) *faults.Injector {
	return (&faults.Plan{Specs: []faults.Spec{{Site: site, Every: n}}}).Compile(1, h.Eng.Now)
}

func mustProg(t *testing.T, name, src string) *ebpf.Program {
	t.Helper()
	f, err := ebpf.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ebpf.Verify(name, f)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := v.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// faultyProg builds a verified program that faults on every run: it
// tail-calls itself past MaxTailCalls.
func faultyProg(t *testing.T) *ebpf.Program {
	t.Helper()
	return selfTailProg(t, "faulty")
}

func TestPointEmptyRunsPass(t *testing.T) {
	p := NewPoint(newHost(), "t_empty", "")
	v := p.Run(Input{Packet: []byte{1}})
	if v.Action != Pass || v.Faulted {
		t.Fatalf("empty point verdict = %+v", v)
	}
	if p.Stats().Runs != 0 {
		t.Fatal("empty point counted a run")
	}
}

func TestAttachRunDetachLifecycle(t *testing.T) {
	pt := NewPoint(newHost(), "t_lifecycle", "")
	steer := mustProg(t, "steer2", "r0 = 2\nexit\n")
	l, err := pt.Attach(steer)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Attached() || pt.Program() != steer || pt.Link() != l {
		t.Fatal("attach did not install")
	}
	// Second attach must fail while occupied.
	if _, err := pt.Attach(mustProg(t, "other", "r0 = PASS\nexit\n")); err == nil {
		t.Fatal("double attach succeeded")
	}

	v := pt.Run(Input{Packet: []byte{1, 2}})
	if v.Action != Steer || v.Index != 2 {
		t.Fatalf("verdict = %+v", v)
	}
	if st := pt.Stats(); st.Runs != 1 || st.Steers != 1 {
		t.Fatalf("point stats = %+v", st)
	}
	if st := l.Stats(); st.Runs != 1 || st.Steers != 1 {
		t.Fatalf("link stats = %+v", st)
	}

	l.Detach()
	if pt.Attached() || pt.Link() != nil || !l.Detached() {
		t.Fatal("detach did not empty the slot")
	}
	l.Detach() // idempotent
	if v := pt.Run(Input{}); v.Action != Pass {
		t.Fatal("detached point did not fall back to Pass")
	}
	// The slot is free again.
	if _, err := pt.Attach(steer); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
}

func TestReplaceSwapsLive(t *testing.T) {
	pt := NewPoint(newHost(), "t_replace", "")
	l, err := pt.Attach(mustProg(t, "gen1", "r0 = 1\nexit\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v := pt.Run(Input{}); v.Index != 1 {
		t.Fatalf("gen1 verdict = %+v", v)
	}
	gen2 := mustProg(t, "gen2", "r0 = 7\nexit\n")
	if err := l.Replace(gen2); err != nil {
		t.Fatal(err)
	}
	if pt.Program() != gen2 || l.Program() != gen2 {
		t.Fatal("replace did not swap the installed program")
	}
	if v := pt.Run(Input{}); v.Index != 7 {
		t.Fatalf("gen2 verdict = %+v", v)
	}
	// Per-link counters survive the swap: they describe the deployment.
	if st := l.Stats(); st.Runs != 2 {
		t.Fatalf("link runs after swap = %d", st.Runs)
	}
	if err := l.Replace(nil); err == nil {
		t.Fatal("Replace(nil) succeeded")
	}
	l.Detach()
	if err := l.Replace(gen2); err == nil {
		t.Fatal("Replace on detached link succeeded")
	}
}

func TestFaultCountsAndFailsOpen(t *testing.T) {
	// A second point faulting in the same process must not show up in
	// this one's accounting.
	noise := NewPoint(newHost(), "t:fault", "")
	noise.Set(faultyProg(t))
	noise.Run(Input{Packet: []byte{1}})

	pt := NewPoint(newHost(), "t:fault", "")
	l, err := pt.Attach(faultyProg(t))
	if err != nil {
		t.Fatal(err)
	}
	v := pt.Run(Input{Packet: []byte{1}})
	if v.Action != Pass || !v.Faulted {
		t.Fatalf("fault verdict = %+v", v)
	}
	if st := pt.Stats(); st.Faults != 1 || st.Runs != 1 || st.Passes != 0 {
		t.Fatalf("point stats = %+v", st)
	}
	if st := l.Stats(); st.Faults != 1 {
		t.Fatalf("link stats = %+v", st)
	}
	if runs, faults := pt.StatsKeys(); runs != "ebpf_hook_runs_t_fault" || faults != "ebpf_hook_faults_t_fault" {
		t.Fatalf("stats keys = %q, %q", runs, faults)
	}
}

func TestSetCompatSurface(t *testing.T) {
	pt := NewPoint(newHost(), "t_set", "")
	a := mustProg(t, "a", "r0 = PASS\nexit\n")
	b := mustProg(t, "b", "r0 = DROP\nexit\n")
	pt.Set(a)
	first := pt.Link()
	if pt.Program() != a || first == nil {
		t.Fatal("Set did not attach")
	}
	pt.Set(b) // live replace keeps the link identity
	if pt.Program() != b || pt.Link() != first || first.Program() != b {
		t.Fatal("Set did not live-replace")
	}
	pt.Set(nil)
	if pt.Attached() || !first.Detached() {
		t.Fatal("Set(nil) did not detach")
	}
	pt.Set(nil) // idempotent on empty slot
}

type tPolicy struct{ id int }

func TestUserAttachment(t *testing.T) {
	pt := NewPoint(newHost(), "t_user", "")
	p1 := &tPolicy{1}
	l, err := pt.AttachUser(p1, "policy-1")
	if err != nil {
		t.Fatal(err)
	}
	if pt.UserPayload() != p1 || l.Label() != "policy-1" {
		t.Fatal("user attach did not install")
	}
	pt.UserRun()
	if pt.Stats().Runs != 1 || l.Stats().Runs != 1 {
		t.Fatal("UserRun not accounted")
	}
	// Running the eBPF path on a userspace attachment is a modeling bug.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run on userspace attachment did not panic")
			}
		}()
		pt.Run(Input{})
	}()
	if err := l.Replace(mustProg(t, "x", "r0 = PASS\nexit\n")); err == nil {
		t.Fatal("program Replace on userspace attachment succeeded")
	}
	l.Detach()
	if pt.UserPayload() != nil {
		t.Fatal("detach left payload")
	}
}

func TestEnvOverride(t *testing.T) {
	// get_smp_processor_id reads Env.CPUID, which each run takes from
	// Input.CPU.
	src := "call get_smp_processor_id\nexit\n"
	pt := NewPoint(newHost(), "t_env", "")
	if _, err := pt.Attach(mustProg(t, "cpu", src)); err != nil {
		t.Fatal(err)
	}
	if v := pt.Run(Input{CPU: 5}); v.Index != 5 {
		t.Fatalf("cpu 5 verdict = %+v", v)
	}
	if v := pt.Run(Input{}); v.Index != 0 {
		t.Fatalf("cpu 0 verdict = %+v", v)
	}
}

func TestRegistry(t *testing.T) {
	if len(Hooks()) != 7 {
		t.Fatalf("registry size = %d", len(Hooks()))
	}
	for _, name := range Names() {
		k, err := Parse(name)
		if err != nil || string(k) != name {
			t.Fatalf("Parse(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse accepted bogus hook")
	}
	tbl := markdownTable()
	for _, name := range Names() {
		if !strings.Contains(tbl, "`"+name+"`") {
			t.Fatalf("markdown table missing %s", name)
		}
	}
}

// TestTracedRunEmitsVerdictSpans covers the trace seam: every Run on a
// traced point must emit one instant hook span carrying the verdict.
func TestTracedRunEmitsVerdictSpans(t *testing.T) {
	h := newHost()
	pt := NewPoint(h, "t_traced:9000", "")
	rec := trace.New(16)
	h.Tracer = rec
	h.Eng.RunUntil(1000)

	// Empty slot: layer default, no policy ran, no span.
	pt.Run(Input{Req: 1})
	if rec.Total() != 0 {
		t.Fatalf("empty-slot Run recorded %d spans, want 0", rec.Total())
	}

	if _, err := pt.Attach(mustProg(t, "steer2", "r0 = 2\nexit\n")); err != nil {
		t.Fatal(err)
	}
	h.Eng.RunUntil(2000)
	pt.Run(Input{Req: 7, Port: 9000, Queue: 3})
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Instant || s.Stage != trace.StageHook || s.Req != 7 ||
		s.Start != 2000 || s.End != 2000 || s.CPU != 3 || s.Port != 9000 ||
		s.Verdict != trace.VerdictSteer || s.Executor != 2 ||
		s.Hook != "t_traced:9000" || s.Policy != "steer2" || s.Err {
		t.Fatalf("steer span = %+v", s)
	}

	// Detaching the tracer stops emission without touching the verdict.
	h.Tracer = nil
	if v := pt.Run(Input{Req: 8}); v.Action != Steer || rec.Total() != 1 {
		t.Fatalf("untraced Run: verdict=%+v spans=%d", v, rec.Total())
	}
}

// TestFaultEmitsErrorSpanAndFallsOpen pins the fault path's trace
// contract: a faulting policy must emit a span tagged with the error
// AND still fall open to Pass so the layer default runs.
func TestFaultEmitsErrorSpanAndFallsOpen(t *testing.T) {
	h := newHost()
	pt := NewPoint(h, "t_fault_traced", "")
	rec := trace.New(16)
	h.Tracer = rec
	if _, err := pt.Attach(faultyProg(t)); err != nil {
		t.Fatal(err)
	}

	v := pt.Run(Input{Req: 42, Queue: 1})
	if v.Action != Pass || !v.Faulted {
		t.Fatalf("fault did not fall open: %+v", v)
	}
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	s := spans[0]
	if !s.Err || s.Verdict != trace.VerdictFault || s.Req != 42 ||
		s.Stage != trace.StageHook || s.Policy != "faulty" {
		t.Fatalf("fault span = %+v", s)
	}
	if st := pt.Stats(); st.Faults != 1 {
		t.Fatalf("fault not counted: %+v", st)
	}
}

// TestVerdictTrace covers the Verdict -> trace classification helper.
func TestVerdictTrace(t *testing.T) {
	cases := []struct {
		v    Verdict
		want trace.Verdict
		exec uint32
	}{
		{Verdict{Action: Pass}, trace.VerdictPass, 0},
		{Verdict{Action: Drop}, trace.VerdictDrop, 0},
		{Verdict{Action: Steer, Index: 5}, trace.VerdictSteer, 5},
		{Verdict{Action: Pass, Faulted: true}, trace.VerdictFault, 0},
	}
	for _, c := range cases {
		tv, exec := c.v.Trace()
		if tv != c.want || exec != c.exec {
			t.Fatalf("Trace(%+v) = %v/%d, want %v/%d", c.v, tv, exec, c.want, c.exec)
		}
	}
}

// TestZeroAllocRun gates the hook dispatch hot path: Run must stay
// allocation-free whether tracing is off (the default every figure runs
// with) or on (the recorder's ring Record is itself zero-alloc once warm).
func TestZeroAllocRun(t *testing.T) {
	h := newHost()
	pt := NewPoint(h, "t_zeroalloc", "")
	if _, err := pt.Attach(mustProg(t, "steer0", "r0 = 0\nexit\n")); err != nil {
		t.Fatal(err)
	}
	in := Input{Req: 7, Port: 9000, Hash: 0x1234}

	if avg := testing.AllocsPerRun(500, func() { pt.Run(in) }); avg != 0 {
		t.Fatalf("untraced Run: %v allocs/op, want 0", avg)
	}

	h.Tracer = trace.New(256)
	for i := 0; i < 512; i++ { // warm the ring past its first lap
		pt.Run(in)
	}
	if avg := testing.AllocsPerRun(500, func() { pt.Run(in) }); avg != 0 {
		t.Fatalf("traced Run: %v allocs/op, want 0", avg)
	}
}

func TestFaultInjectorFailsOpen(t *testing.T) {
	h := newHost()
	pt := NewPoint(h, "t_inject", faults.SiteOffload)
	prog := mustProg(t, "steer7", "r0 = 7\nexit\n")
	l, err := pt.Attach(prog)
	if err != nil {
		t.Fatal(err)
	}

	// Fire on every other run.
	h.Faults = everyNth(h, faults.SiteOffload, 2)
	rec := trace.New(8)
	h.Tracer = rec

	before := prog.Stats().Runs
	v1 := pt.Run(Input{Packet: []byte{1}})
	if v1.Action != Steer || v1.Index != 7 || v1.Faulted {
		t.Fatalf("clean run verdict = %+v", v1)
	}
	v2 := pt.Run(Input{Packet: []byte{1}})
	if v2.Action != Pass || !v2.Faulted {
		t.Fatalf("injected run verdict = %+v, want faulted fall-open", v2)
	}
	// The program must not have executed on the injected run.
	if got := prog.Stats().Runs - before; got != 1 {
		t.Fatalf("program ran %d times, want 1 (injection skips execution)", got)
	}
	st := pt.Stats()
	if st.Runs != 2 || st.Faults != 1 || st.Steers != 1 {
		t.Fatalf("point stats = %+v", st)
	}
	if ls := l.Stats(); ls.Runs != 2 || ls.Faults != 1 {
		t.Fatalf("link stats = %+v", ls)
	}
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Verdict != trace.VerdictFault || !spans[1].Err {
		t.Fatalf("spans = %+v", spans)
	}

	// Disarm: back to clean verdicts.
	h.Faults = nil
	if v := pt.Run(Input{Packet: []byte{1}}); v.Faulted {
		t.Fatalf("disarmed point still faulted: %+v", v)
	}
}

// selfTailProg builds a verified program that tail-calls itself until the
// budget faults.
func selfTailProg(t *testing.T, name string) *ebpf.Program {
	t.Helper()
	pa, err := ebpf.NewMap(ebpf.MapSpec{Name: name + "_pa", Type: ebpf.MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := ebpf.NewMapTable()
	fd := tb.Register(pa)
	insns := []ebpf.Instruction{}
	insns = append(insns, ebpf.LoadMapFD(ebpf.R2, fd)...)
	insns = append(insns,
		ebpf.MovImm(ebpf.R3, 0),
		ebpf.Call(ebpf.HelperTailCall),
		ebpf.MovImm(ebpf.R0, -1),
		ebpf.Exit(),
	)
	p, err := ebpf.Load(name, insns, ebpf.LoadOptions{MapTable: tb})
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.UpdateProg(0, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTailCallBudgetOneHookFault is the fall-open audit for the tail-call
// path: a chain exhausting MaxTailCalls must count exactly one hook fault
// and fall open.
func TestTailCallBudgetOneHookFault(t *testing.T) {
	prog := selfTailProg(t, "runaway")
	pt := NewPoint(newHost(), "t_tailfault", "")
	if _, err := pt.Attach(prog); err != nil {
		t.Fatal(err)
	}
	v := pt.Run(Input{Packet: []byte{1}})
	if v.Action != Pass || !v.Faulted {
		t.Fatalf("verdict = %+v, want faulted fall-open", v)
	}
	st := pt.Stats()
	if st.Runs != 1 || st.Faults != 1 {
		t.Fatalf("point stats = %+v, want exactly one run, one fault", st)
	}
	if f := prog.Stats().Faults; f != 1 {
		t.Fatalf("program faults = %d, want 1", f)
	}
}

// TestRunStateSurvivesReplaceTailCallsAndFaults: a point runs each program
// on the run state that program owns, and keeps one Env and Ctx for every
// run whichever program is installed. A long-lived point taken through
// Replace, a tail-call chain that faults at its budget and injected faults
// must give, generation by generation, the verdicts and the accounting of a
// point created for that generation alone.
func TestRunStateSurvivesReplaceTailCallsAndFaults(t *testing.T) {
	spill := func(mod string) func(*testing.T) *ebpf.Program {
		return func(t *testing.T) *ebpf.Program {
			return mustProg(t, "spill"+mod, "r2 = *(u32 *)(r1 + 16)\n*(u64 *)(r10 - 8) = r2\nr0 = *(u64 *)(r10 - 8)\nr0 %= "+mod+"\nexit\n")
		}
	}
	gens := []struct {
		name   string
		prog   func(*testing.T) *ebpf.Program
		inject uint64 // fire on every inject-th run; 0 never
		batch  bool
	}{
		{"spill", spill("4"), 0, false},
		{"tailcall budget", func(t *testing.T) *ebpf.Program { return selfTailProg(t, "rs_tail") }, 0, false},
		{"after a tail-call fault", spill("3"), 0, true},
		{"injected faults", spill("5"), 3, false},
		{"after injected faults", spill("7"), 0, true},
	}
	arm := func(h *Host, every uint64) {
		h.Faults = nil
		if every != 0 {
			h.Faults = everyNth(h, faults.SiteSocketSelect, every)
		}
	}
	run := func(pt *Point, ins []Input, batch bool) []Verdict {
		if batch {
			return append([]Verdict(nil), pt.RunBatch(ins)...)
		}
		var out []Verdict
		for _, in := range ins {
			out = append(out, pt.Run(in))
		}
		return out
	}
	ins := mkInputs(20)
	longHost := newHost()
	long := NewPoint(longHost, "t_long", faults.SiteSocketSelect)
	var prev Stats
	for _, g := range gens {
		progL, progF := g.prog(t), g.prog(t)
		long.Set(progL) // attach, then live Replace from the second generation on
		freshHost := newHost()
		fresh := NewPoint(freshHost, "t_fresh", faults.SiteSocketSelect)
		fresh.Set(progF)
		arm(longHost, g.inject)
		arm(freshHost, g.inject)
		got, want := run(long, ins, g.batch), run(fresh, ins, g.batch)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: verdict %d = %+v on the long-lived point, %+v on a fresh one", g.name, i, got[i], want[i])
			}
		}
		cur := long.Stats()
		delta := Stats{cur.Runs - prev.Runs, cur.Faults - prev.Faults, cur.Passes - prev.Passes, cur.Drops - prev.Drops, cur.Steers - prev.Steers}
		if delta != fresh.Stats() {
			t.Fatalf("%s: point stats %+v on the long-lived point, %+v on a fresh one", g.name, delta, fresh.Stats())
		}
		if progL.Stats() != progF.Stats() {
			t.Fatalf("%s: program stats %+v on the long-lived point, %+v on a fresh one", g.name, progL.Stats(), progF.Stats())
		}
		prev = cur
	}
	// One link across every generation: a re-attach would restart its stats.
	if l := long.Link(); l.Stats() != long.Stats() {
		t.Fatalf("link stats %+v; point stats %+v", l.Stats(), long.Stats())
	}
	if prev.Faults == 0 || prev.Steers == 0 {
		t.Fatalf("generations never faulted or never steered: %+v", prev)
	}
}

// Detached reports whether the link has been torn down.
func (l *Link) Detached() bool { return l.detached }
