package ebpf

import (
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
)

func TestMapSpecValidation(t *testing.T) {
	bad := []MapSpec{
		{Name: "zero-entries", Type: MapArray, KeySize: 4, ValueSize: 8},
		{Name: "bad-key", Type: MapArray, KeySize: 8, ValueSize: 8, MaxEntries: 1},
		{Name: "zero-key", Type: MapHash, KeySize: 0, ValueSize: 8, MaxEntries: 1},
		{Name: "zero-value", Type: MapHash, KeySize: 4, ValueSize: 0, MaxEntries: 1},
		{Name: "pa-bad-value", Type: MapProgArray, KeySize: 4, ValueSize: 8, MaxEntries: 1},
		{Name: "bad-type", Type: MapType(99), KeySize: 4, ValueSize: 8, MaxEntries: 1},
	}
	for _, spec := range bad {
		if _, err := NewMap(spec); err == nil {
			t.Errorf("spec %q accepted", spec.Name)
		}
	}
}

func TestArrayMapBasics(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "a", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	// Array slots exist from the start, zero-filled.
	if v, ok := m.LookupUint64(0); !ok || v != 0 {
		t.Fatalf("fresh array slot: %d %v", v, ok)
	}
	if err := m.UpdateUint64(3, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LookupUint64(3); v != 99 {
		t.Fatalf("update/lookup: %d", v)
	}
	// Out-of-range index.
	if _, ok := m.LookupUint64(4); ok {
		t.Fatal("out-of-range lookup succeeded")
	}
	if err := m.UpdateUint64(4, 1); err == nil {
		t.Fatal("out-of-range update succeeded")
	}
	// Arrays don't support delete.
	key := make([]byte, 4)
	if err := m.Delete(key); err == nil {
		t.Fatal("array delete succeeded")
	}
	// Wrong key size.
	if _, ok := m.Lookup([]byte{1, 2}); ok {
		t.Fatal("short key accepted")
	}
}

func TestHashMapBasics(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "h", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	if _, ok := m.LookupUint64(1); ok {
		t.Fatal("lookup on empty hash succeeded")
	}
	if err := m.UpdateUint64(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := m.UpdateUint64(2, 20); err != nil {
		t.Fatal(err)
	}
	// Map full.
	if err := m.UpdateUint64(3, 30); err == nil {
		t.Fatal("overfull hash accepted new key")
	}
	// Overwrite existing is fine even when full.
	if err := m.UpdateUint64(1, 11); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LookupUint64(1); v != 11 {
		t.Fatalf("overwrite: %d", v)
	}
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], 1)
	if err := m.Delete(kb[:]); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LookupUint64(1); ok {
		t.Fatal("deleted key still present")
	}
	if err := m.Delete(kb[:]); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestMapAddUint64(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "a", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	m.UpdateUint64(0, 5)
	if err := m.AddUint64(0, 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LookupUint64(0); v != 15 {
		t.Fatalf("AddUint64 = %d", v)
	}
	if err := m.AddUint64(9, 1); err == nil {
		t.Fatal("AddUint64 out of range succeeded")
	}
}

// TestZeroAllocLookupUint64: the accessor reads in place on every map
// kind (thread policies call it per runnable thread per decision), and
// still refuses what Lookup refuses.
func TestZeroAllocLookupUint64(t *testing.T) {
	for _, typ := range []MapType{MapArray, MapPerCPUArray, MapHash} {
		m := MustNewMap(MapSpec{Name: "m", Type: typ, KeySize: 4, ValueSize: 8, MaxEntries: 4})
		m.UpdateUint64(2, 77)
		var v uint64
		var ok, miss bool
		if n := testing.AllocsPerRun(100, func() {
			v, ok = m.LookupUint64(2)
			_, miss = m.LookupUint64(9)
		}); n != 0 {
			t.Errorf("%v: LookupUint64 allocates %.1f times per hit+miss", typ, n)
		}
		if v != 77 || !ok || miss {
			t.Errorf("%v: LookupUint64 = %d,%v; absent key found = %v", typ, v, ok, miss)
		}
	}
	for _, spec := range []MapSpec{
		{Name: "narrow", Type: MapArray, KeySize: 4, ValueSize: 4, MaxEntries: 1},
		{Name: "widekey", Type: MapHash, KeySize: 8, ValueSize: 8, MaxEntries: 1},
		{Name: "progs", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1},
	} {
		if _, ok := MustNewMap(spec).LookupUint64(0); ok {
			t.Errorf("%s: LookupUint64 succeeded", spec.Name)
		}
	}
}

func TestMapConcurrentAdds(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "a", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.AddUint64(0, 1)
			}
		}()
	}
	wg.Wait()
	if v, _ := m.LookupUint64(0); v != workers*perWorker {
		t.Fatalf("concurrent adds lost updates: %d", v)
	}
}

func TestMapIterate(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "h", Type: MapHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	m.UpdateUint64(1, 10)
	m.UpdateUint64(2, 20)
	var sum uint64
	m.Iterate(func(k, v []byte) bool {
		sum += binary.LittleEndian.Uint64(v)
		return true
	})
	if sum != 30 {
		t.Fatalf("iterate sum = %d", sum)
	}
	// Early stop.
	n := 0
	m.Iterate(func(k, v []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Array iteration covers all slots.
	a := MustNewMap(MapSpec{Name: "a", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 3})
	n = 0
	a.Iterate(func(k, v []byte) bool { n++; return true })
	if n != 3 {
		t.Fatalf("array iterate visited %d", n)
	}
}

func TestProgArray(t *testing.T) {
	pa := MustNewMap(MapSpec{Name: "pa", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 2})
	p := MustLoad("t", []Instruction{MovImm(R0, 1), Exit()}, LoadOptions{})
	if err := pa.UpdateProg(0, p); err != nil {
		t.Fatal(err)
	}
	if pa.prog(0) != p {
		t.Fatal("prog not stored")
	}
	if pa.prog(1) != nil {
		t.Fatal("empty slot returned a prog")
	}
	if err := pa.UpdateProg(5, p); err == nil {
		t.Fatal("out-of-range prog update succeeded")
	}
	if err := pa.UpdateProg(0, nil); err != nil {
		t.Fatal(err)
	}
	if pa.prog(0) != nil {
		t.Fatal("clear failed")
	}
	// Data ops rejected on prog arrays.
	if _, ok := pa.Lookup([]byte{0, 0, 0, 0}); ok {
		t.Fatal("prog array data lookup succeeded")
	}
	if err := pa.Update([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}); err == nil {
		t.Fatal("prog array data update succeeded")
	}
	// UpdateProg on a non-prog-array map.
	a := MustNewMap(MapSpec{Name: "a", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	if err := a.UpdateProg(0, p); err == nil {
		t.Fatal("UpdateProg on array succeeded")
	}
}

func TestMapTable(t *testing.T) {
	tb := NewMapTable()
	m1 := MustNewMap(MapSpec{Name: "m1", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	m2 := MustNewMap(MapSpec{Name: "m2", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	fd1, fd2 := tb.Register(m1), tb.Register(m2)
	if fd1 == fd2 {
		t.Fatal("duplicate fds")
	}
	if tb.Get(fd1) != m1 || tb.Get(fd2) != m2 {
		t.Fatal("fd resolution wrong")
	}
	if tb.Get(999) != nil {
		t.Fatal("bogus fd resolved")
	}
	if err := tb.Close(fd1); err != nil {
		t.Fatal(err)
	}
	if tb.Get(fd1) != nil {
		t.Fatal("closed fd still resolves")
	}
	if err := tb.Close(fd1); err == nil {
		t.Fatal("double close succeeded")
	}
}

func TestPinRegistry(t *testing.T) {
	r := NewPinRegistry()
	m := MustNewMap(MapSpec{Name: "m", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	const owner, other = 1000, 1001

	if err := r.Pin("relative/path", m, owner, 0o600); err == nil {
		t.Fatal("relative pin path accepted")
	}
	if err := r.Pin("/sys/fs/bpf/app/tokens", m, owner, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := r.Pin("/sys/fs/bpf/app/tokens", m, owner, 0o600); err == nil {
		t.Fatal("re-pin succeeded")
	}
	// Owner can always open.
	if _, err := r.Open("/sys/fs/bpf/app/tokens", owner, true); err != nil {
		t.Fatal(err)
	}
	// Non-owner blocked by 0600.
	if _, err := r.Open("/sys/fs/bpf/app/tokens", other, false); err == nil {
		t.Fatal("0600 map readable by other uid")
	}
	// World-readable allows read but not write.
	if err := r.Pin("/sys/fs/bpf/app/stats", m, owner, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("/sys/fs/bpf/app/stats", other, false); err != nil {
		t.Fatal("0644 map not readable by other uid")
	}
	if _, err := r.Open("/sys/fs/bpf/app/stats", other, true); err == nil {
		t.Fatal("0644 map writable by other uid")
	}
	// List.
	if got := r.List("/sys/fs/bpf/app/"); len(got) != 2 {
		t.Fatalf("list = %v", got)
	}
	// Unpin: only owner.
	if err := r.Unpin("/sys/fs/bpf/app/tokens", other); err == nil {
		t.Fatal("other uid unpinned")
	}
	if err := r.Unpin("/sys/fs/bpf/app/tokens", owner); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("/sys/fs/bpf/app/tokens", owner, false); err == nil {
		t.Fatal("unpinned map still opens")
	}
	if err := r.Unpin("/nope", owner); err == nil {
		t.Fatal("unpin of missing path succeeded")
	}
	if _, err := r.Open("/nope", owner, false); err == nil {
		t.Fatal("open of missing path succeeded")
	}
}

// Property: hash map update-then-lookup round-trips arbitrary keys/values.
func TestPropertyHashMapRoundTrip(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "h", Type: MapHash, KeySize: 8, ValueSize: 16, MaxEntries: 1 << 20})
	f := func(key uint64, val [16]byte) bool {
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], key)
		if err := m.Update(kb[:], val[:]); err != nil {
			return false
		}
		got, ok := m.Lookup(kb[:])
		if !ok {
			return false
		}
		for i := range val {
			if got[i] != val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insns := []Instruction{
		MovImm(R0, -7),
		Ldx(4, R2, R1, 16),
		JmpImm(JmpNe, R2, 3, 1),
		XAdd(8, R2, R3, -8),
		Exit(),
	}
	raw := Encode(insns)
	back, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(insns) {
		t.Fatalf("decode length %d", len(back))
	}
	for i := range insns {
		if insns[i] != back[i] {
			t.Fatalf("insn %d round trip: %+v vs %+v", i, insns[i], back[i])
		}
	}
	if _, err := Decode(raw[:5]); err == nil {
		t.Fatal("truncated decode succeeded")
	}
}

func TestDisassembleSmoke(t *testing.T) {
	insns := []Instruction{
		MovImm(R0, 5),
		ALUImm(ALUMod, R0, 6),
		Ldx(8, R2, R1, 0),
		Stx(8, R10, R2, -8),
		StImm(4, R10, -4, 3),
		XAdd(8, R10, R0, -16),
		JmpImm(JmpEq, R0, 0, 2),
		JmpReg(JmpGt, R2, R3, 1),
		Ja(-3),
		Call(HelperMapLookup),
		Neg(R4),
		Exit(),
	}
	out := DisassembleProgram(insns)
	for _, want := range []string{"r0 = 5", "%= 6", "*(u64 *)(r1 +0)", "lock", "goto", "call map_lookup_elem", "exit"} {
		if !contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestPerCPUArrayMap(t *testing.T) {
	m := MustNewMap(MapSpec{Name: "pc", Type: MapPerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	// Program increments its CPU's replica of counter 0 (no atomics).
	tb := NewMapTable()
	fd := tb.Register(m)
	insns := []Instruction{StImm(4, R10, -4, 0)}
	insns = append(insns, LoadMapFD(R1, fd)...)
	insns = append(insns,
		MovReg(R2, R10),
		ALUImm(ALUAdd, R2, -4),
		Call(HelperMapLookup),
		JmpImm(JmpEq, R0, 0, 3),
		Ldx(8, R6, R0, 0),
		ALUImm(ALUAdd, R6, 1),
		Stx(8, R0, R6, 0),
		MovImm(R0, 0),
		Exit(),
	)
	p := wantAccept(t, insns, tb)
	// Run 3 times on cpu 2, twice on cpu 5.
	for i := 0; i < 3; i++ {
		run(t, p, &Ctx{}, &Env{CPUID: 2})
	}
	for i := 0; i < 2; i++ {
		run(t, p, &Ctx{}, &Env{CPUID: 5})
	}
	if sum, ok := m.SumUint64(0); !ok || sum != 5 {
		t.Fatalf("per-cpu sum = %d %v, want 5", sum, ok)
	}
	// Userspace Lookup reads replica 0 (untouched).
	if v, _ := m.LookupUint64(0); v != 0 {
		t.Fatalf("replica 0 = %d", v)
	}
	// Broadcast update resets every replica.
	if err := m.UpdateUint64(0, 7); err != nil {
		t.Fatal(err)
	}
	if sum, _ := m.SumUint64(0); sum != 7*PerCPUSlots {
		t.Fatalf("post-broadcast sum = %d", sum)
	}
	// Out-of-range key.
	if _, ok := m.SumUint64(9); ok {
		t.Fatal("out-of-range SumUint64 succeeded")
	}
	// SumUint64 on a plain array degenerates to Lookup.
	a := MustNewMap(MapSpec{Name: "a", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	a.UpdateUint64(0, 3)
	if v, _ := a.SumUint64(0); v != 3 {
		t.Fatalf("array SumUint64 = %d", v)
	}
}

func TestPerCPUAssemblerDecl(t *testing.T) {
	src := `
.map counters percpu_array 4 8 4
  *(u32 *)(r10 - 4) = 1
  r1 = map(counters)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto out
  r6 = *(u64 *)(r0 + 0)
  r6 += 1
  *(u64 *)(r0 + 0) = r6
out:
  r0 = 0
  exit
`
	p, maps, err := AssembleAndLoad("pc", src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cpu := uint32(0); cpu < 3; cpu++ {
		run(t, p, &Ctx{}, &Env{CPUID: cpu})
	}
	if sum, _ := maps["counters"].SumUint64(1); sum != 3 {
		t.Fatalf("assembled percpu sum = %d", sum)
	}
}
