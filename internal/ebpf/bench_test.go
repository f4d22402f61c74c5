package ebpf

import (
	"testing"
)

// BenchmarkVerifier measures end-to-end load (resolve + verify) cost for a
// representative policy: what syrupd pays per deployment.
func BenchmarkVerifier(b *testing.B) {
	m := MustNewMap(MapSpec{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	tb := NewMapTable()
	fd := tb.Register(m)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 5),
		Ldx(8, R6, R0, 0),
		MovReg(R7, R6),
		ALUImm(ALUAdd, R7, 1),
		Stx(8, R0, R7, 0),
		Ja(1),
		MovImm(R6, 0),
		MovReg(R0, R6),
		ALUImm(ALUMod, R0, 6),
		Exit(),
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load("bench", insns, LoadOptions{MapTable: tb}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssemble measures .syr text assembly throughput.
func BenchmarkAssemble(b *testing.B) {
	src := `
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// dispatchPrograms builds the three benchmark shapes — short filter,
// map-heavy policy, tail-call chain — with fresh maps.
func dispatchPrograms(b *testing.B) map[string]*Program {
	b.Helper()
	load := func(name string, insns []Instruction, t *MapTable) *Program {
		p, err := Load(name, insns, LoadOptions{MapTable: t})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}

	short := load("bd_short", []Instruction{
		Ldx(4, R0, R1, CtxOffHash),
		ALUImm(ALUAnd, R0, 3),
		Exit(),
	}, nil)

	arr := MustNewMap(MapSpec{Name: "bd_state", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	table := NewMapTable()
	arrFD := table.Register(arr)
	mapInsns := []Instruction{StImm(4, R10, -4, 0)}
	mapInsns = append(mapInsns, LoadMapFD(R1, arrFD)...)
	mapInsns = append(mapInsns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 5),
		Ldx(8, R6, R0, 0),
		ALUImm(ALUAdd, R6, 1),
		Stx(8, R0, R6, 0),
		MovReg(R0, R6),
		ALUImm(ALUMod, R0, 6),
		Exit(),
	)
	mapHeavy := load("bd_map", mapInsns, table)

	progArr := MustNewMap(MapSpec{Name: "bd_chain", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 4})
	ptable := NewMapTable()
	progFD := ptable.Register(progArr)
	leaf := load("bd_leaf", []Instruction{MovImm(R0, 42), Exit()}, nil)
	mid := load("bd_mid", append(LoadMapFD(R2, progFD),
		MovImm(R3, 2),
		Call(HelperTailCall),
		MovImm(R0, 1),
		Exit(),
	), ptable)
	root := load("bd_root", append(LoadMapFD(R2, progFD),
		MovImm(R3, 1),
		Call(HelperTailCall),
		MovImm(R0, 0),
		Exit(),
	), ptable)
	if err := progArr.UpdateProg(1, mid); err != nil {
		b.Fatal(err)
	}
	if err := progArr.UpdateProg(2, leaf); err != nil {
		b.Fatal(err)
	}

	return map[string]*Program{
		"short_filter":   short,
		"map_policy":     mapHeavy,
		"tailcall_chain": root,
	}
}

// BenchmarkDispatch compares the reference (RunInterp: plain decoding,
// fresh state, decoded per call) with Run (pinned decoding, pooled state) on
// the three canonical policy shapes. Run with -benchmem: the run rows must
// report 0 allocs/op in steady state.
func BenchmarkDispatch(b *testing.B) {
	env := &Env{
		Prandom: func() uint32 { return 4 },
		Ktime:   func() uint64 { return 0 },
	}
	for _, kind := range []string{"short_filter", "map_policy", "tailcall_chain"} {
		for _, mode := range []string{"ref", "run"} {
			b.Run(kind+"/"+mode, func(b *testing.B) {
				p := dispatchPrograms(b)[kind]
				run := p.Run
				if mode == "ref" {
					run = p.RunInterp
				}
				ctx := &Ctx{Packet: make([]byte, 64), Hash: 0x1234}
				// Warm the pool and dynamic-region capacity.
				for i := 0; i < 8; i++ {
					if _, _, err := run(ctx, env); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := run(ctx, env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
