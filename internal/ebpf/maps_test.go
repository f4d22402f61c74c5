package ebpf

import (
	"encoding/binary"
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
		// Storage the runtime cannot allocate ends the process, so it is
		// refused before the allocation.
		{Name: "huge-array", Type: MapArray, KeySize: 4, ValueSize: 65536, MaxEntries: 1<<32 - 1},
		{Name: "huge-prog-array", Type: MapProgArray, KeySize: 4, ValueSize: 4, MaxEntries: 1<<32 - 1},
	}
	for _, spec := range bad {
		if _, err := NewMap(spec); err == nil {
			t.Errorf("spec %q accepted", spec.Name)
		}
	}
	// Table 3's map: 2^20 eight-byte slots.
	if _, err := NewMap(MapSpec{Name: "t3", Type: MapArray, KeySize: 4, ValueSize: 8, MaxEntries: 1 << 20}); err != nil {
		t.Error(err)
	}
}

// TestVerifyChecksEveryMapSpec: a declaration that NewMap would refuse is
// refused by Verify, on its .map line, so a file Verify admits binds on
// any host that holds no map of the same name.
func TestVerifyChecksEveryMapSpec(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{".map weights array 4 8 0\nr0 = 0\nexit\n", `line 1: map "weights": max_entries must be > 0`},
		{".map w array 8 8 4\nr0 = 0\nexit\n", `line 1: array map "w" requires 4-byte keys`},
		{".map w array 4 65536 1000000\nr0 = 0\nexit\n", `line 1: map "w": 1000000 entries of 65536 bytes exceed the 67108864-byte storage limit`},
		{"; two maps\n.map ok hash 8 8 4\n\n.map pa prog_array 4 8 4\nr0 = 0\nexit\n", `line 4: prog_array "pa" requires 4-byte keys and values`},
	} {
		f, err := Assemble(tc.src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify("spec", f); err == nil || err.Error() != "ebpf: spec: "+tc.want {
			t.Errorf("%q: Verify: %v, want %s", tc.src, err, tc.want)
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
	if m.Delete(key) {
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
	if !m.Delete(kb[:]) {
		t.Fatal("delete of a present key failed")
	}
	if _, ok := m.LookupUint64(1); ok {
		t.Fatal("deleted key still present")
	}
	if m.Delete(kb[:]) {
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
	for _, typ := range []MapType{MapArray, MapHash} {
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
	back, err := decodeWire(raw)
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
	if _, err := decodeWire(raw[:5]); err == nil {
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
	out := (&AsmFile{Insns: insns}).Text()
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

// Lookup returns a copy of the value for key, or ok=false if absent.
func (m *Map) Lookup(key []byte) ([]byte, bool) {
	if err := m.checkKey(key); err != nil {
		return nil, false
	}
	ref := m.lookupRef(key) // nil for prog arrays: not data-readable, like the kernel
	if ref == nil {
		return nil, false
	}
	out := make([]byte, len(ref))
	copy(out, ref)
	return out, true
}
