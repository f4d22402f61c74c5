package ebpf

import "testing"

// The optimizer's own tests: each pass on a minimal program, asserting that
// it fires and the exact stream it leaves, then the contract around it —
// the adopted stream's fact table, and what a bailout or a re-verify
// reject leaves behind. Semantic equivalence is the differential harness's
// job (jit_test.go); this file pins what the passes do.

type optPass func(pr *irProg, facts *Facts, rep *PassReport)

func noFacts(fn func(*irProg, *PassReport)) optPass {
	return func(pr *irProg, _ *Facts, rep *PassReport) { fn(pr, rep) }
}

func mustVerify(t *testing.T, insns []Instruction) *Facts {
	t.Helper()
	facts, err := verify(&Program{name: "opt", insns: insns}, DefaultVerifierBudget)
	if err != nil {
		t.Fatal(err)
	}
	return facts
}

// runPasses verifies insns, applies the passes in order to the lifted IR,
// and returns the lowered stream with the last pass's report.
func runPasses(t *testing.T, insns []Instruction, passes ...optPass) ([]Instruction, PassReport) {
	t.Helper()
	facts := mustVerify(t, insns)
	pr, err := liftIR(insns)
	if err != nil {
		t.Fatal(err)
	}
	var rep PassReport
	for _, pass := range passes {
		rep = PassReport{Before: pr.slots()}
		pass(pr, facts, &rep)
		rep.After = pr.slots()
	}
	out, err := pr.lower()
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

func TestOptPasses(t *testing.T) {
	hash := Ldx(4, R6, R1, CtxOffHash)
	for _, tc := range []struct {
		name   string
		passes []optPass
		in     []Instruction
		want   []Instruction
	}{
		{
			name:   "branch-fold/never-taken",
			passes: []optPass{passBranchFold},
			in: []Instruction{
				MovImm(R0, 0),
				MovImm(R2, 5),
				JmpImm(JmpEq, R2, 6, 1),
				MovImm(R0, 1),
				Exit(),
			},
			want: []Instruction{
				MovImm(R0, 0),
				MovImm(R2, 5),
				MovImm(R0, 1),
				Exit(),
			},
		},
		{
			name:   "branch-fold/always-taken",
			passes: []optPass{passBranchFold},
			in: []Instruction{
				MovImm(R0, 0),
				MovImm(R2, 5),
				JmpImm(JmpEq, R2, 5, 1),
				MovImm(R0, 1),
				Exit(),
			},
			want: []Instruction{
				MovImm(R0, 0),
				MovImm(R2, 5),
				Ja(1),
				MovImm(R0, 1),
				Exit(),
			},
		},
		{
			name:   "unreachable",
			passes: []optPass{passBranchFold, noFacts(passUnreachable)},
			in: []Instruction{
				MovImm(R0, 0),
				MovImm(R2, 5),
				JmpImm(JmpEq, R2, 5, 1),
				MovImm(R0, 1),
				Exit(),
			},
			want: []Instruction{
				MovImm(R0, 0),
				MovImm(R2, 5),
				Ja(0),
				Exit(),
			},
		},
		{
			name:   "const-fold",
			passes: []optPass{passConstFold},
			in: []Instruction{
				MovImm(R2, 5),
				MovReg(R0, R2),
				ALUReg(ALUAdd, R0, R2),
				Exit(),
			},
			want: []Instruction{
				MovImm(R2, 5),
				{Op: ClassALU | ALUMov | SrcK, Dst: R0, Imm: 5},
				{Op: ClassALU | ALUMov | SrcK, Dst: R0, Imm: 10},
				Exit(),
			},
		},
		{
			name:   "copy-prop",
			passes: []optPass{noFacts(passCopyProp)},
			in: []Instruction{
				MovReg(R6, R1),
				Ldx(4, R0, R6, CtxOffHash),
				Exit(),
			},
			want: []Instruction{
				MovReg(R6, R1),
				Ldx(4, R0, R1, CtxOffHash),
				Exit(),
			},
		},
		{
			name:   "dce",
			passes: []optPass{noFacts(passDCE)},
			in: []Instruction{
				MovImm(R3, 7),
				MovImm(R0, 0),
				Exit(),
			},
			want: []Instruction{
				MovImm(R0, 0),
				Exit(),
			},
		},
		{
			name:   "dse",
			passes: []optPass{passDSE},
			in: []Instruction{
				StImm(8, R10, -8, 1),
				StImm(8, R10, -8, 2),
				Ldx(8, R0, R10, -8),
				Exit(),
			},
			want: []Instruction{
				StImm(8, R10, -8, 2),
				Ldx(8, R0, R10, -8),
				Exit(),
			},
		},
		{
			// rX op= imm ; mov rY, rX  ->  mov rY, rX ; rY op= imm
			name:   "schedule/rename",
			passes: []optPass{noFacts(passSchedule)},
			in: []Instruction{
				hash,
				ALUImm(ALUAdd, R6, 4),
				MovReg(R0, R6),
				Exit(),
			},
			want: []Instruction{
				hash,
				MovReg(R0, R6),
				ALUImm(ALUAdd, R0, 4),
				Exit(),
			},
		},
		{
			// A ; X ; B  ->  X ; A ; B, making ldx+jcc adjacent.
			name:   "schedule/swap",
			passes: []optPass{noFacts(passSchedule)},
			in: []Instruction{
				hash,
				MovImm(R0, 1),
				JmpImm(JmpEq, R6, 5, 1),
				MovImm(R0, 2),
				Exit(),
			},
			want: []Instruction{
				MovImm(R0, 1),
				hash,
				JmpImm(JmpEq, R6, 5, 1),
				MovImm(R0, 2),
				Exit(),
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, rep := runPasses(t, tc.in, tc.passes...)
			if len(rep.Elisions) == 0 {
				t.Fatalf("pass did not fire on:\n%s", DisassembleProgram(tc.in))
			}
			if g, w := DisassembleProgram(got), DisassembleProgram(tc.want); g != w {
				t.Fatalf("output stream:\n%s\nwant:\n%s", g, w)
			}
			if rep.After-rep.Before != len(tc.want)-len(tc.in) {
				t.Fatalf("report says %d -> %d slots, streams say %d -> %d", rep.Before, rep.After, len(tc.in), len(tc.want))
			}
		})
	}
}

// TestOptAdoptsReverifiedFacts: when the optimizer rewrites a program, the
// fact table the compiler sees is the re-verifier's for the new stream —
// same length, every reachable slot visited — and the original is kept
// for inspection.
func TestOptAdoptsReverifiedFacts(t *testing.T) {
	arr := MustNewMap(MapSpec{Name: "oarr", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	table := NewMapTable()
	fd := table.Register(arr)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 3),
		JmpImm(JmpEq, R0, 0, 2), // redundant null re-check: folded
		Ldx(8, R0, R0, 0),
		Exit(),
		MovImm(R0, 0),
		Exit(),
	)
	p := MustLoad("oadopt", insns, LoadOptions{MapTable: table})
	if !p.Optimized() || p.OptReport() == nil {
		t.Fatalf("optimizer left a foldable program alone:\n%s", p.Disassemble())
	}
	if p.OrigLen() != len(insns) || p.Len() != len(insns)-1 {
		t.Fatalf("OrigLen %d Len %d, want %d and %d", p.OrigLen(), p.Len(), len(insns), len(insns)-1)
	}
	facts := p.Facts()
	if facts.Len() != p.Len() {
		t.Fatalf("fact table covers %d slots, stream has %d", facts.Len(), p.Len())
	}
	for pc := 0; pc < p.Len(); pc++ {
		if pc > 0 && p.insns[pc-1].IsLDDW() {
			continue // high half: no visits of its own
		}
		if !facts.Visited(pc) {
			t.Fatalf("pc %d of the adopted stream unvisited:\n%s", pc, p.Disassemble())
		}
	}
}

// specializedLoadAt reports whether the compiler would emit a
// fact-specialized closure for the load at slot i.
func specializedLoadAt(p *Program, i int) bool { return p.specLoad(i, p.insns[i]) != nil }

// TestOptBailoutKeepsVerifiedOriginal: trailing dead code makes the IR
// lift refuse the stream ("falls off the end"), so the pipeline bails. The
// load still succeeds on the verified original, with its fact table, and
// the compiler still specializes from those facts.
func TestOptBailoutKeepsVerifiedOriginal(t *testing.T) {
	insns := []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		Exit(),
		MovImm(R0, 1), // unreachable, and not a terminator
	}
	if _, _, err := Optimize(insns, mustVerify(t, insns)); err == nil {
		t.Fatal("optimizer accepted a stream that falls off its end")
	}
	p := MustLoad("obail", insns, LoadOptions{})
	if p.Optimized() || p.OptReport() != nil || p.OptRejected() {
		t.Fatal("bailed-out load reports an optimizer run or a reject")
	}
	if got, want := p.Disassemble(), DisassembleProgram(insns); got != want || p.OrigLen() != len(insns) {
		t.Fatalf("stream moved off the verified original:\n%s", got)
	}
	if p.Facts() == nil || p.Facts().Len() != len(insns) || !p.Facts().Visited(0) || p.Facts().Visited(2) {
		t.Fatal("fact table is not the original verify's")
	}
	if !specializedLoadAt(p, 0) {
		t.Fatal("bailed-out program lost its fact-specialized closures")
	}
	if ret, _, err := p.Run(&Ctx{Hash: 41}, nil); err != nil || ret != 41 {
		t.Fatalf("run = %d, %v", ret, err)
	}
}

// TestOptReverifyRejectKeepsVerifiedOriginal: a re-verification that
// fails (here: its budget is too small for the rewritten stream) must
// leave the program exactly as first verified, and count the reject.
func TestOptReverifyRejectKeepsVerifiedOriginal(t *testing.T) {
	insns := []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		MovImm(R3, 7), // dead: the optimizer rewrites the stream
		Exit(),
	}
	facts := mustVerify(t, insns)
	p := &Program{name: "oreject", insns: insns, facts: facts}
	p.optimize(1)
	if !p.OptRejected() {
		t.Fatal("re-verify reject not reported on the program")
	}
	if p.Optimized() || p.OptReport() != nil || p.Facts() != facts || p.OrigLen() != len(insns) || p.Len() != len(insns) {
		t.Fatalf("rejected rewrite leaked into the program:\n%s", p.Disassemble())
	}
	if !specializedLoadAt(p, 0) {
		t.Fatal("rejected program lost its fact-specialized closures")
	}
	// With a real budget the same program is rewritten.
	p.optimize(DefaultVerifierBudget)
	if !p.Optimized() || p.Len() != len(insns)-1 {
		t.Fatalf("control: optimizer did not rewrite:\n%s", p.Disassemble())
	}
}
