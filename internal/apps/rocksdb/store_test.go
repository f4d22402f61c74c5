package rocksdb

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("empty store returned a value")
	}
	s.Put("a", "1")
	s.Put("b", "2")
	s.Put("a", "3") // overwrite
	if v, ok := s.Get("a"); !ok || v != "3" {
		t.Fatalf("a = %q %v", v, ok)
	}
	if v, _ := s.Get("b"); v != "2" {
		t.Fatalf("b = %q", v)
	}
}

func TestStoreGetAcrossFlushes(t *testing.T) {
	s := NewStore()
	s.Put("k", "old")
	s.Flush()
	s.Put("k", "new")
	if v, _ := s.Get("k"); v != "new" {
		t.Fatalf("memtable should shadow runs: %q", v)
	}
	s.Flush()
	if v, _ := s.Get("k"); v != "new" {
		t.Fatalf("newest run should win: %q", v)
	}
	if s.Flushes != 2 {
		t.Fatalf("flushes = %d", s.Flushes)
	}
}

func TestStoreScanMergesAndDedups(t *testing.T) {
	s := NewStore()
	s.Put("a", "1")
	s.Put("c", "old")
	s.Flush()
	s.Put("b", "2")
	s.Put("c", "new")
	got := s.Scan("a", 10)
	want := []KV{{"a", "1"}, {"b", "2"}, {"c", "new"}}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Bounded scan.
	if got := s.Scan("a", 2); len(got) != 2 || got[1].Key != "b" {
		t.Fatalf("limited scan = %v", got)
	}
	// Scan from a midpoint.
	if got := s.Scan("b", 10); len(got) != 2 || got[0].Key != "b" {
		t.Fatalf("mid scan = %v", got)
	}
	// Scan past the end.
	if got := s.Scan("zzz", 10); len(got) != 0 {
		t.Fatalf("tail scan = %v", got)
	}
}

func TestStoreAutoFlushAndCompaction(t *testing.T) {
	s := NewStore()
	n := memtableFlushSize*(maxRuns+2) + 17
	for i := 0; i < n; i++ {
		s.Put(Key(i%50000), fmt.Sprintf("v%d", i))
	}
	if s.Flushes == 0 {
		t.Fatal("no automatic flushes")
	}
	if s.Compactions == 0 {
		t.Fatal("no compactions")
	}
	if len(s.runs) > maxRuns+1 {
		t.Fatalf("%d runs after compaction", len(s.runs))
	}
	// Data integrity after compaction: latest writes visible.
	if v, ok := s.Get(Key((n - 1) % 50000)); !ok || v != fmt.Sprintf("v%d", n-1) {
		t.Fatalf("post-compaction read: %q %v", v, ok)
	}
}

// Property: the store agrees with a plain map under random puts/gets, and
// scans return sorted, deduplicated keys.
func TestPropertyStoreMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore()
		oracle := map[string]string{}
		for i, op := range ops {
			k := Key(int(op) % 200)
			v := fmt.Sprintf("v%d", i)
			s.Put(k, v)
			oracle[k] = v
		}
		for k, want := range oracle {
			if got, ok := s.Get(k); !ok || got != want {
				return false
			}
		}
		scan := s.Scan("", 1000)
		if len(scan) != len(oracle) {
			return false
		}
		for i := 1; i < len(scan); i++ {
			if scan[i-1].Key >= scan[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyFormat: Key is "key-%08d" over the whole int range, the fast path
// and the fmt fallback alike.
func TestKeyFormat(t *testing.T) {
	for _, i := range []int{0, 7, 99, 100, 12_345_678, 99_999_999, 100_000_000, -1, -12_345_678} {
		if got, want := Key(i), fmt.Sprintf("key-%08d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
	for i, k := range renderKeys(12_345) {
		if k != Key(i) {
			t.Fatalf("renderKeys[%d] = %q, want %q", i, k, Key(i))
		}
	}
}

// TestPreloadAndLen: Preload loads Key(i) → "value-<i>" as the base level
// in a handful of allocations, none per key, and counts no Put or flush.
func TestPreloadAndLen(t *testing.T) {
	s := NewStore()
	s.Preload(500)
	if got := s.Len(); got != 500 {
		t.Fatalf("len = %d", got)
	}
	for _, i := range []int{0, 7, 499} {
		if v, ok := s.Get(Key(i)); !ok || v != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Get(%s) = %q, %v", Key(i), v, ok)
		}
	}
	if s.Puts != 0 || s.Flushes != 0 || len(s.mem.keys) != 0 || len(s.runs) != 0 {
		t.Fatalf("Preload wrote %d puts, %d flushes, %d memtable keys, %d runs; want none",
			s.Puts, s.Flushes, len(s.mem.keys), len(s.runs))
	}
	if allocs := testing.AllocsPerRun(3, func() { NewStore().Preload(10_000) }); allocs > 10 {
		t.Fatalf("Preload(10000): %v allocs, want no more than 10", allocs)
	}
}

// oracleStore is the store as it was before the memtable became an
// ordered run: a map memtable, re-sorted for every Scan, flush and
// compaction, and a Get that binary-searches every run. It is kept as the
// reference the array-backed store is driven against. Its preload is the
// old one — a Put of every key — into a map below the runs that flushes
// and compactions leave alone, as the store's base level is; it never
// changes, so Scan reads it through a sorted copy made once.
type oracleStore struct {
	memtable             map[string]string
	runs                 []run
	base                 map[string]string
	baseRun              run
	Flushes, Compactions uint64
}

func newOracleStore() *oracleStore { return &oracleStore{memtable: map[string]string{}} }

func sortedRun(m map[string]string, from string) run {
	var r run
	for k := range m {
		if k >= from {
			r.keys = append(r.keys, k)
		}
	}
	sort.Strings(r.keys)
	for _, k := range r.keys {
		r.values = append(r.values, m[k])
	}
	return r
}

func (o *oracleStore) Preload(n int) {
	o.base = make(map[string]string, n)
	for i := range n {
		k, v := fmt.Sprintf("key-%08d", i), fmt.Sprintf("value-%d", i)
		o.base[k] = v
		o.baseRun.keys, o.baseRun.values = append(o.baseRun.keys, k), append(o.baseRun.values, v)
	}
}

func (o *oracleStore) Put(key, value string) {
	o.memtable[key] = value
	if len(o.memtable) >= memtableFlushSize {
		o.Flush()
	}
}

func (o *oracleStore) Get(key string) (string, bool) {
	if v, ok := o.memtable[key]; ok {
		return v, true
	}
	for _, r := range o.runs {
		if i := sort.SearchStrings(r.keys, key); i < len(r.keys) && r.keys[i] == key {
			return r.values[i], true
		}
	}
	v, ok := o.base[key]
	return v, ok
}

func (o *oracleStore) Scan(start string, limit int) []KV {
	type cursor struct {
		run
		pos int
	}
	its := []*cursor{{run: sortedRun(o.memtable, start)}}
	for _, r := range o.runs {
		its = append(its, &cursor{run: r, pos: sort.SearchStrings(r.keys, start)})
	}
	its = append(its, &cursor{run: o.baseRun, pos: sort.SearchStrings(o.baseRun.keys, start)})
	var out []KV
	for len(out) < limit {
		best := -1
		for i, it := range its {
			if it.pos < len(it.keys) && (best == -1 || it.keys[it.pos] < its[best].keys[its[best].pos]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		k := its[best].keys[its[best].pos]
		out = append(out, KV{Key: k, Value: its[best].values[its[best].pos]})
		for _, it := range its {
			for it.pos < len(it.keys) && it.keys[it.pos] == k {
				it.pos++
			}
		}
	}
	return out
}

func (o *oracleStore) Len() int {
	seen := map[string]bool{}
	for k := range o.memtable {
		seen[k] = true
	}
	for _, r := range o.runs {
		for _, k := range r.keys {
			seen[k] = true
		}
	}
	for k := range o.base {
		seen[k] = true
	}
	return len(seen)
}

func (o *oracleStore) Flush() {
	if len(o.memtable) == 0 {
		return
	}
	o.Flushes++
	o.runs = append([]run{sortedRun(o.memtable, "")}, o.runs...)
	o.memtable = map[string]string{}
	if len(o.runs) > maxRuns {
		o.Compactions++
		merged := map[string]string{}
		for i := len(o.runs) - 1; i >= 0; i-- { // oldest first; newer overwrite
			for j, k := range o.runs[i].keys {
				merged[k] = o.runs[i].values[j]
			}
		}
		o.runs = []run{sortedRun(merged, "")}
	}
}

// storePair drives the store and the oracle with the same operations and
// compares every read.
type storePair struct {
	t testing.TB
	s *Store
	o *oracleStore
	// base is a copy of the store's base level as Preload left it, and
	// baseAt where its arrays were: nothing after Preload may move or
	// change them.
	base   run
	baseAt [2]*string
}

func newStorePair(t testing.TB) *storePair {
	return &storePair{t: t, s: NewStore(), o: newOracleStore()}
}

func (p *storePair) preload(n int) {
	p.s.Preload(n)
	p.o.Preload(n)
	p.base = run{keys: slices.Clone(p.s.base.keys), values: slices.Clone(p.s.base.values)}
	p.baseAt = [2]*string{unsafe.SliceData(p.s.base.keys), unsafe.SliceData(p.s.base.values)}
}

func (p *storePair) put(k, v string) { p.s.Put(k, v); p.o.Put(k, v) }
func (p *storePair) flush()          { p.s.Flush(); p.o.Flush() }

func (p *storePair) get(k string) {
	p.t.Helper()
	gv, gok := p.s.Get(k)
	wv, wok := p.o.Get(k)
	if gv != wv || gok != wok {
		p.t.Fatalf("Get(%q) = %q,%v; oracle %q,%v", k, gv, gok, wv, wok)
	}
}

func (p *storePair) scan(start string, limit int) {
	p.t.Helper()
	got, want := p.s.Scan(start, limit), p.o.Scan(start, limit)
	if len(got) != len(want) {
		p.t.Fatalf("Scan(%q, %d) returned %d entries; oracle %d", start, limit, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			p.t.Fatalf("Scan(%q, %d)[%d] = %v; oracle %v", start, limit, i, got[i], want[i])
		}
	}
}

func (p *storePair) shape() {
	p.t.Helper()
	if p.s.Flushes != p.o.Flushes || p.s.Compactions != p.o.Compactions || len(p.s.runs) != len(p.o.runs) {
		p.t.Fatalf("shape: flushes %d/%d compactions %d/%d runs %d/%d", p.s.Flushes, p.o.Flushes,
			p.s.Compactions, p.o.Compactions, len(p.s.runs), len(p.o.runs))
	}
	for i, r := range p.s.runs {
		if len(r.keys) != len(p.o.runs[i].keys) {
			p.t.Fatalf("run %d holds %d keys; oracle %d", i, len(r.keys), len(p.o.runs[i].keys))
		}
	}
	if got, want := p.s.Len(), p.o.Len(); got != want {
		p.t.Fatalf("Len = %d; oracle %d", got, want)
	}
	for _, r := range append([]run{p.s.mem, p.s.base}, p.s.runs...) {
		if !sort.StringsAreSorted(r.keys) || len(r.keys) != len(r.values) {
			p.t.Fatalf("run not sorted or ragged: %d keys, %d values", len(r.keys), len(r.values))
		}
	}
	if at := [2]*string{unsafe.SliceData(p.s.base.keys), unsafe.SliceData(p.s.base.values)}; at != p.baseAt ||
		!slices.Equal(p.s.base.keys, p.base.keys) || !slices.Equal(p.s.base.values, p.base.values) {
		p.t.Fatalf("the base level moved or changed after Preload: %d keys at %p, was %d at %p",
			len(p.s.base.keys), at[0], len(p.base.keys), p.baseAt[0])
	}
}

// nearBase lists keys next to a base of n that it does not hold: just past
// its end, between its last key and the next, and strings that almost
// invert to a position (too short, a letter for a digit, a sign, a ninth
// digit).
func nearBase(n int) []string {
	return []string{Key(n), Key(n-1) + "~", "key-0000001", "key-0000000a", Key(-1), Key(1e8)}
}

// pastLen is a scan limit above any store's Len() here that still fits a
// 32-bit int.
const pastLen = 1 << 30

// TestStoreDifferentialDirected pins the cases an ordered (or cached)
// memtable view could get wrong.
func TestStoreDifferentialDirected(t *testing.T) {
	p := newStorePair(t)
	// Empty store.
	p.get("a")
	p.scan("", 10)
	// Non-ascending insert order, an overwrite, versions shadowed across
	// the memtable and three runs with disjoint and overlapping fences.
	for _, k := range []string{"m", "c", "x", "e", "c"} {
		p.put(k, "r3-"+k)
	}
	p.flush()
	for _, k := range []string{"t", "d", "m"} {
		p.put(k, "r2-"+k)
	}
	p.flush()
	for _, k := range []string{"b", "a"} { // fence [a, b]: below the other runs
		p.put(k, "r1-"+k)
	}
	p.flush()
	for _, k := range []string{"x", "f", "d"} {
		p.put(k, "mem-"+k)
	}
	p.shape()
	if len(p.s.runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(p.s.runs))
	}
	// Present in each level; absent below, between and above every fence.
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "m", "t", "x", "", "0", "bb", "dd", "n", "u", "y", "zzz"} {
		p.get(k)
	}
	for _, start := range []string{"", "0", "a", "bb", "d", "f", "n", "x", "xx", "zzz"} {
		for _, limit := range []int{-1, 0, 1, 3, 9, 10, pastLen} {
			p.scan(start, limit)
		}
	}
	// A Put landing between two Scans must show up in the second: a new
	// key inside the scanned range, an overwrite, and a new smallest key.
	p.scan("c", 5)
	p.put("cc", "fresh")
	p.scan("c", 5)
	p.put("d", "again")
	p.scan("c", 5)
	p.put("", "smallest")
	p.scan("", 3)
	p.get("")
	p.shape()
}

// TestStoreDifferentialRandom drives seeded random Put / overwrite / Flush
// / auto-flush / compaction / Get / Scan interleavings against the oracle,
// on an empty store and over a preloaded base.
func TestStoreDifferentialRandom(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		preload int
	}{{1, 0}, {2, 10_000}} {
		seed := tc.seed
		rng := rand.New(rand.NewPCG(seed, 16))
		p := newStorePair(t)
		p.preload(tc.preload)
		edges := nearBase(tc.preload)
		// Writes use even indices in a window that drifts upward from
		// inside the base to past it, so runs get overlapping but distinct
		// fences and shadow some base keys; odd indices past the base and
		// indices outside the window are the absent keys.
		const window = 40_000
		anyKey := func(base int) string {
			switch rng.IntN(10) {
			case 0:
				return Key(base + window + rng.IntN(1000)) // above every fence
			case 1:
				return Key(rng.IntN(base+1)) + "~" // between keys, maybe below every fence
			case 2:
				return edges[rng.IntN(len(edges))]
			default:
				return Key(base + rng.IntN(window))
			}
		}
		explicit := uint64(0)
		const ops = 60_000
		for i := 0; i < ops; i++ {
			base := i / 40
			switch r := rng.IntN(1000); {
			case r < 903:
				p.put(Key(base+rng.IntN(window/2)*2), fmt.Sprintf("v%d", i))
				if rng.IntN(15_000) == 0 {
					explicit++
					p.flush()
				}
			case r < 985:
				p.get(anyKey(base))
			default:
				start := anyKey(base)
				if rng.IntN(8) == 0 {
					start = [...]string{"", "zzz"}[rng.IntN(2)]
				}
				limit := [...]int{0, 1, 7, 100}[rng.IntN(4)]
				if rng.IntN(40) == 0 {
					limit = pastLen
				}
				p.scan(start, limit)
			}
			if i%5000 == 0 {
				p.shape()
			}
		}
		p.shape()
		p.scan("", pastLen)
		if p.s.Flushes == explicit || p.s.Compactions == 0 {
			t.Fatalf("seed %d: flushes %d (%d explicit) compactions %d: the interleaving never reached auto-flush and compaction",
				seed, p.s.Flushes, explicit, p.s.Compactions)
		}
	}
}

// TestStoreDifferentialOverBase: versions written over a preloaded base —
// in the memtable, in a run, through auto-flushes and a compaction —
// shadow it exactly as the oracle's puts do, keys next to the base stay
// misses until written, and the base's arrays stay as Preload left them.
func TestStoreDifferentialOverBase(t *testing.T) {
	const n = 10_000
	p := newStorePair(t)
	p.preload(n)
	probe := func() {
		t.Helper()
		for _, i := range []int{0, 1, 4095, 4096, 5000, n - 2, n - 1} {
			p.get(Key(i))
		}
		for _, k := range nearBase(n) {
			p.get(k)
			p.scan(k, 5)
		}
		for _, start := range []string{"", Key(0), Key(4095) + "~", Key(n - 3), Key(n)} {
			for _, limit := range []int{0, 1, 100} {
				p.scan(start, limit)
			}
		}
		p.shape()
	}
	probe()
	// Overwrites of the first, a middle and the last base key, and keys
	// next to the base, in the memtable; then in a run under a memtable
	// that shadows one of them again.
	for _, k := range append([]string{Key(0), Key(5000), Key(n - 1)}, nearBase(n)...) {
		p.put(k, "mem-"+k)
	}
	probe()
	p.flush()
	p.put(Key(5000), "newer")
	probe()
	// Auto-flushes until a compaction, writing over the base and past it.
	for i := 0; p.s.Compactions == 0; i++ {
		p.put(Key(i*7%(2*n)), fmt.Sprintf("v%d", i))
	}
	probe()
	p.scan("", pastLen)
	if p.s.Flushes < maxRuns+1 {
		t.Fatalf("flushes = %d: the writes never reached auto-flush", p.s.Flushes)
	}
}

// FuzzStore decodes bytes into a Preload followed by Put, burst, Flush,
// Get and Scan operations, drives the store and the oracle with them and
// compares every read and, after the last, the shape and Len. The first
// two bytes are the preload size (mod 12 001); each operation is three
// bytes: kind (low 3 bits) and parameter (high 5), then a 16-bit key
// argument. Keys are Key(a mod 12 500), reaching past any base, or, for
// the top 16 arguments, a key next to the base. Bursts stop at 40 000
// writes in all, enough for nine auto-flushes and a compaction.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0x10, 0x27, 0x04, 0x88, 0x13, 0x06, 0x00, 0x00, 0x07, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % 12_001
		p := newStorePair(t)
		p.preload(n)
		edges := nearBase(n)
		key := func(a int) string {
			if a >= 0xfff0 {
				return edges[a%len(edges)]
			}
			return Key(a % 12_500)
		}
		ops, writes := data[2:], 0
		for i := 0; i < 256 && len(ops) >= 3; i, ops = i+1, ops[3:] {
			op := ops[:3]
			param, a := int(op[0]>>3), int(binary.LittleEndian.Uint16(op[1:]))
			switch op[0] & 7 {
			case 0, 1:
				p.put(key(a), fmt.Sprintf("f%d", i))
			case 2: // a burst of ascending writes, to reach auto-flush and compaction
				for j := 0; j < 32*(1+param) && writes < 40_000; j, writes = j+1, writes+1 {
					p.put(Key((a+3*j)%12_500), fmt.Sprintf("b%d.%d", i, j))
				}
			case 3:
				p.flush()
			case 4, 5, 7:
				p.get(key(a))
			case 6:
				p.scan(key(a), 4*param)
			}
		}
		p.shape()
	})
}

// TestPreloadOnlyIntoAnEmptyStore: Preload is a bulk load under nothing.
// Into a store that already holds a memtable, runs or a base it would land
// below newer versions or beside another base, so it panics instead.
func TestPreloadOnlyIntoAnEmptyStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(*Store)
	}{
		{"memtable", func(s *Store) { s.Put(Key(3), "x") }},
		{"run", func(s *Store) { s.Put(Key(3), "x"); s.Flush() }},
		{"preloaded", func(s *Store) { s.Preload(10) }},
		{"preloaded_empty", func(s *Store) { s.Preload(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			tc.fill(s)
			defer func() {
				if recover() == nil {
					t.Fatal("Preload into a non-empty store did not panic")
				}
			}()
			s.Preload(10)
		})
	}
}

func TestZeroAllocStoreGet(t *testing.T) {
	s := NewStore()
	s.Preload(10_000)
	s.Put(Key(5_000), "over the base")
	keys := append([]string{Key(9_999), Key(5_000), Key(1), Key(20_000)}, nearBase(10_000)...)
	if v, _ := s.Get(Key(5_000)); v != "over the base" {
		t.Fatalf("Get(%s) = %q, want the memtable's version", Key(5_000), v)
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			s.Get(k)
		}
	}); n != 0 {
		t.Fatalf("Store.Get allocates %.1f times per %d lookups", n, len(keys))
	}
	// A Scan allocates its result and nothing else; a warm AppendScan, not
	// even that.
	if n := testing.AllocsPerRun(200, func() { s.Scan(keys[2], 100) }); n != 1 {
		t.Fatalf("Store.Scan allocates %.1f times, want 1 (the result)", n)
	}
	buf := s.AppendScan(nil, keys[2], 100)
	if n := testing.AllocsPerRun(200, func() { buf = s.AppendScan(buf[:0], keys[2], 100) }); n != 0 || len(buf) != 100 {
		t.Fatalf("warm Store.AppendScan allocates %.1f times for %d entries, want 0 for 100", n, len(buf))
	}
}

// BenchmarkStoreGet looks up preloaded keys where each level holds them:
// in the base alone, shadowed by the memtable, shadowed by a run (with an
// empty memtable above it), and keys no level holds.
func BenchmarkStoreGet(b *testing.B) {
	const n = 10_000
	over := func(flush bool) *Store {
		s := NewStore()
		s.Preload(n)
		for i := range 1024 {
			s.Put(Key(i*(n/1024)), "over")
		}
		if flush {
			s.Flush()
		}
		return s
	}
	base := NewStore()
	base.Preload(n)
	for _, bc := range []struct {
		name  string
		s     *Store
		key   func(i int) int
		found bool
	}{
		{"base", base, func(i int) int { return i }, true},
		{"memtable", over(false), func(i int) int { return i * (n / 1024) }, true},
		{"run", over(true), func(i int) int { return i * (n / 1024) }, true},
		{"miss", base, func(i int) int { return n + i }, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			keys := make([]string, 1024)
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range keys {
				keys[i] = Key(bc.key(rng.IntN(1024)))
			}
			if _, ok := bc.s.Get(keys[0]); ok != bc.found {
				b.Fatalf("Get(%s) found = %v, want %v", keys[0], ok, bc.found)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.s.Get(keys[i&1023])
			}
		})
	}
}

// BenchmarkGetRandom is the ledger's rocksdb.get probe shape: uniform over
// the 10 K preloaded keys, every one of them found in the base.
func BenchmarkGetRandom(b *testing.B) {
	s := NewStore()
	s.Preload(10_000)
	keys := make([]string, 10_000)
	for i := range keys {
		keys[i] = Key(i)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	order := make([]uint16, 1<<14)
	for i := range order {
		order[i] = uint16(rng.IntN(len(keys)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[order[i&(len(order)-1)]])
	}
}

func BenchmarkStoreScan100(b *testing.B) {
	s := NewStore()
	s.Preload(10_000)
	keys := make([]string, 1024)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range keys {
		keys[i] = Key(rng.IntN(10_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Scan(keys[i&1023], 100)
	}
}

// Flush seals the memtable into a run.
func (s *Store) Flush() { s.flush() }
