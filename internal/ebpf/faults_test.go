package ebpf

// Differential coverage of the fault paths a chaos plan can reach: the
// tail-call budget fault and the injected helper errors must behave
// bit-identically under Run on reused state and RunInterp on fresh state,
// and every runtime error must charge exactly one fault to the program
// whose instruction errored.

import (
	"strings"
	"testing"

	"syrup/internal/faults"
	"syrup/internal/sim"
)

// always is an injector that fires site on every event.
func always(site faults.Site) *faults.Injector {
	return (&faults.Plan{Specs: []faults.Spec{{Site: site, Every: 1}}}).Compile(1, func() sim.Time { return 0 })
}

// selfTailProg builds a verified program that tail-calls itself forever.
func selfTailProg(t *testing.T) *Program {
	t.Helper()
	tb, pa, fd := progArrayTable("pa", 1)
	p := wantAccept(t, tailCallOr(fd, 0, -1), tb)
	if err := pa.UpdateProg(0, p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTailCallBudgetDifferential(t *testing.T) {
	p := selfTailProg(t)

	_, stC, errC := p.Run(&Ctx{}, nil)
	_, stI, errI := p.RunInterp(&Ctx{}, nil)

	if errC == nil || errI == nil {
		t.Fatalf("budget exhaustion must fault: run=%v ref=%v", errC, errI)
	}
	if errC.Error() != errI.Error() {
		t.Fatalf("error divergence:\n  run: %v\n  ref: %v", errC, errI)
	}
	if !strings.Contains(errC.Error(), "tail call budget exhausted") {
		t.Fatalf("unexpected fault: %v", errC)
	}
	if stC != stI {
		t.Fatalf("stats divergence: run %+v, ref %+v", stC, stI)
	}
	if stC.TailCalls != MaxTailCalls {
		t.Fatalf("tail calls = %d, want %d", stC.TailCalls, MaxTailCalls)
	}
	// Exactly one fault per run, charged to the (single) program.
	if f := p.Stats().Faults; f != 2 {
		t.Fatalf("program faults = %d, want 2 (one per path)", f)
	}
}

// TestTailCallFaultChargedToCallee checks attribution across a chain:
// root tail-calls into a target that then exhausts the budget; the
// faults belong to the target, not root.
func TestTailCallFaultChargedToCallee(t *testing.T) {
	target := selfTailProg(t)

	tb, pa, fd := progArrayTable("root_pa", 1)
	if err := pa.UpdateProg(0, target); err != nil {
		t.Fatal(err)
	}
	root := wantAccept(t, tailCallOr(fd, 0, -1), tb)

	base := target.Stats().Faults
	if _, _, err := root.Run(&Ctx{}, nil); err == nil {
		t.Fatal("chain did not fault")
	}
	if _, _, err := root.RunInterp(&Ctx{}, nil); err == nil {
		t.Fatal("chain did not fault under the reference")
	}
	if f := root.Stats().Faults; f != 0 {
		t.Fatalf("root charged %d faults, want 0", f)
	}
	if f := target.Stats().Faults - base; f != 2 {
		t.Fatalf("target charged %d faults, want 2", f)
	}
}

func TestInjectedLookupMissDifferential(t *testing.T) {
	tb, m, fd := u64MapTable(t, 4)
	if err := m.UpdateUint64(2, 7777); err != nil {
		t.Fatal(err)
	}
	// Return the value at key 2, or 99 on a miss.
	insns := lookupThen(fd, 2,
		JmpImm(JmpEq, R0, 0, 2),
		Ldx(8, R0, R0, 0),
		Ja(1),
		MovImm(R0, 99),
		Exit(),
	)
	p := wantAccept(t, insns, tb)

	for _, miss := range []bool{false, true, false} {
		env := &Env{}
		want := uint32(7777)
		if miss {
			env.Faults, want = always(faults.SiteHelperLookup), 99
		}
		gotC, _, errC := p.Run(&Ctx{}, env)
		gotI, _, errI := p.RunInterp(&Ctx{}, env)
		if errC != nil || errI != nil {
			t.Fatalf("miss=%v errored: %v / %v", miss, errC, errI)
		}
		if gotC != want || gotI != want {
			t.Fatalf("miss=%v: run=%d ref=%d, want %d", miss, gotC, gotI, want)
		}
	}
	// A forced miss is a policy degradation, not a program fault.
	if f := p.Stats().Faults; f != 0 {
		t.Fatalf("lookup miss charged %d faults", f)
	}
}

func TestInjectedUpdateFailDifferential(t *testing.T) {
	h := MustNewMap(MapSpec{Name: "h", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	tb := NewMapTable()
	fd := tb.Register(h)
	// Return map_update's result (0 ok, -1 fail) as R0.
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
		Exit(),
	)
	p := wantAccept(t, insns, tb)

	env := &Env{Faults: always(faults.SiteHelperUpdate)}
	retC, _, errC := p.RunRet64(&Ctx{}, env)
	if errC != nil {
		t.Fatal(errC)
	}
	retI, _, _ := p.runRef(&Ctx{}, env)
	if retC != retI {
		t.Fatalf("run=%#x ref=%#x", retC, retI)
	}
	if int64(retC) != -1 {
		t.Fatalf("injected update returned %d, want -1", int64(retC))
	}
	// The write must not have landed.
	if _, ok := h.LookupUint64(9); ok {
		t.Fatal("injected update failure still wrote the map")
	}
	// And with injection off, the same program succeeds.
	if ret, _, err := p.RunRet64(&Ctx{}, nil); err != nil || ret != 0 {
		t.Fatalf("clean update ret=%d err=%v", int64(ret), err)
	}
}

func TestInjectedTailCallFaultDifferential(t *testing.T) {
	tb, pa, fd := progArrayTable("pa", 1)
	target := wantAccept(t, []Instruction{MovImm(R0, 77), Exit()}, nil)
	if err := pa.UpdateProg(0, target); err != nil {
		t.Fatal(err)
	}
	root := wantAccept(t, tailCallOr(fd, 0, -1), tb)

	env := &Env{Faults: always(faults.SiteTailCall)}
	_, _, errC := root.Run(&Ctx{}, env)
	_, _, errI := root.RunInterp(&Ctx{}, env)
	if errC == nil || errI == nil || errC.Error() != errI.Error() {
		t.Fatalf("injected tail-call fault diverged: %v / %v", errC, errI)
	}
	if !strings.Contains(errC.Error(), "tail call budget exhausted") {
		t.Fatalf("unexpected fault: %v", errC)
	}
	// The fault fires at root's tail-call instruction before the jump,
	// so it is charged to root; the target never ran.
	if f := root.Stats().Faults; f != 2 {
		t.Fatalf("root faults = %d, want 2", f)
	}
	if r := target.Stats().Runs; r != 0 {
		t.Fatalf("target ran %d times under injection", r)
	}
}
