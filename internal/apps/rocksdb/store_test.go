package rocksdb

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
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

// TestPreloadAndLen: Preload puts Key(i) → "value-<i>", and renders them in
// a handful of allocations — the memtables' arrays, not a string or two
// per key.
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
	if allocs := testing.AllocsPerRun(3, func() { NewStore().Preload(10_000) }); allocs > 200 {
		t.Fatalf("Preload(10000): %v allocs, want no more than 200", allocs)
	}
}

// oracleStore is the store as it was before the memtable became an
// ordered run: a map memtable, re-sorted for every Scan, flush and
// compaction, and a Get that binary-searches every run. It is kept as the
// reference the array-backed store is driven against.
type oracleStore struct {
	memtable             map[string]string
	runs                 []run
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
	return "", false
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

// walkGet is the lookup Get was before the point index: the memtable, then
// every run newest first, each behind its fence. It reads the store's own
// LSM state, so comparing it with Get checks the index against the runs it
// summarises — across every flush and compaction that rearranged them.
func (s *Store) walkGet(key string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i, ok := s.mem.find(key); ok {
		return s.mem.values[i], true
	}
	for _, r := range s.runs {
		if i, ok := r.find(key); ok {
			return r.values[i], true
		}
	}
	return "", false
}

// storePair drives the store and the oracle with the same operations and
// compares every read.
type storePair struct {
	t *testing.T
	s *Store
	o *oracleStore
}

func (p storePair) put(k, v string) { p.s.Put(k, v); p.o.Put(k, v) }
func (p storePair) flush()          { p.s.Flush(); p.o.Flush() }

func (p storePair) get(k string) {
	p.t.Helper()
	gv, gok := p.s.Get(k)
	wv, wok := p.o.Get(k)
	if gv != wv || gok != wok {
		p.t.Fatalf("Get(%q) = %q,%v; oracle %q,%v", k, gv, gok, wv, wok)
	}
	if rv, rok := p.s.walkGet(k); gv != rv || gok != rok {
		p.t.Fatalf("Get(%q) = %q,%v from the index; %q,%v walking the store's own runs", k, gv, gok, rv, rok)
	}
}

func (p storePair) scan(start string, limit int) {
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

func (p storePair) shape() {
	p.t.Helper()
	if p.s.Flushes != p.o.Flushes || p.s.Compactions != p.o.Compactions || len(p.s.runs) != len(p.o.runs) {
		p.t.Fatalf("shape: flushes %d/%d compactions %d/%d runs %d/%d", p.s.Flushes, p.o.Flushes,
			p.s.Compactions, p.o.Compactions, len(p.s.runs), len(p.o.runs))
	}
	if got, want := p.s.Len(), p.o.Len(); got != want || len(p.s.index) != want {
		p.t.Fatalf("Len = %d, index holds %d; oracle %d", got, len(p.s.index), want)
	}
	for _, r := range append([]run{p.s.mem}, p.s.runs...) {
		if !sort.StringsAreSorted(r.keys) || len(r.keys) != len(r.values) {
			p.t.Fatalf("run not sorted or ragged: %d keys, %d values", len(r.keys), len(r.values))
		}
	}
}

// TestStoreDifferentialDirected pins the cases an ordered (or cached)
// memtable view could get wrong.
func TestStoreDifferentialDirected(t *testing.T) {
	p := storePair{t, NewStore(), newOracleStore()}
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
		for _, limit := range []int{-1, 0, 1, 3, 9, 10, 1 << 40} {
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
// / auto-flush / compaction / Get / Scan interleavings against the oracle.
func TestStoreDifferentialRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		rng := rand.New(rand.NewPCG(seed, 16))
		p := storePair{t, NewStore(), newOracleStore()}
		// Writes use even indices in a window that drifts upward, so runs
		// get overlapping but distinct fences; odd indices and indices
		// outside the window are the absent keys.
		const window = 40_000
		anyKey := func(base int) string {
			switch rng.IntN(10) {
			case 0:
				return Key(base + window + rng.IntN(1000)) // above every fence
			case 1:
				return Key(rng.IntN(base+1)) + "~" // between keys, maybe below every fence
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
					limit = 1 << 40 // more than Len()
				}
				p.scan(start, limit)
			}
			if i%5000 == 0 {
				p.shape()
			}
		}
		p.shape()
		p.scan("", 1<<40)
		if p.s.Flushes == explicit || p.s.Compactions == 0 {
			t.Fatalf("seed %d: flushes %d (%d explicit) compactions %d: the interleaving never reached auto-flush and compaction",
				seed, p.s.Flushes, explicit, p.s.Compactions)
		}
	}
}

// TestStoreConcurrentReaders runs Get/Scan readers beside one Put/Flush
// writer; under -race it fails if readers share unsynchronised state.
func TestStoreConcurrentReaders(t *testing.T) {
	s := NewStore()
	s.Preload(2000)
	const readers, reads = 4, 2000
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				k := Key((i*7 + r) % 2500)
				if i%16 == 0 {
					s.Scan(k, 20)
				} else if v, ok := s.Get(k); ok && v != "w" && !strings.HasPrefix(v, "value-") {
					t.Errorf("Get(%q) = %q: neither the preloaded nor the written value", k, v)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			s.Put(Key((i*13)%2500), "w")
			if i%500 == 499 {
				s.Flush()
			}
		}
	}()
	wg.Wait()
	if got, want := s.Gets.Load()+s.Scans.Load(), uint64(readers*reads); got != want {
		t.Fatalf("reads counted = %d, want %d", got, want)
	}
	if got := s.Len(); got != 2500 {
		t.Fatalf("len = %d, want 2500", got)
	}
}

func TestZeroAllocStoreGet(t *testing.T) {
	s := NewStore()
	s.Preload(10_000)
	keys := []string{Key(9_999), Key(5_000), Key(1), Key(20_000)}
	if n := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			s.Get(k)
		}
	}); n != 0 {
		t.Fatalf("Store.Get allocates %.1f times per 4 lookups", n)
	}
	// A Scan allocates its result and nothing else.
	if n := testing.AllocsPerRun(200, func() { s.Scan(keys[2], 100) }); n != 1 {
		t.Fatalf("Store.Scan allocates %.1f times, want 1 (the result)", n)
	}
}

// Preload(10_000) leaves keys 8192.. in the memtable, 4096..8191 in the
// newest run and 0..4095 in the oldest.
func BenchmarkStoreGet(b *testing.B) {
	s := NewStore()
	s.Preload(10_000)
	for _, bc := range []struct {
		name   string
		lo, hi int
	}{{"memtable", 8192, 10_000}, {"newest_run", 4096, 8192}, {"oldest_run", 0, 4096}, {"miss", 10_000, 20_000}} {
		b.Run(bc.name, func(b *testing.B) {
			keys := make([]string, 1024)
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range keys {
				keys[i] = Key(bc.lo + rng.IntN(bc.hi-bc.lo))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Get(keys[i&1023])
			}
		})
	}
}

// BenchmarkGetRandom is the ledger's rocksdb.get probe shape: uniform over
// the 10 K preloaded keys, so two lookups in three land in a run rather
// than the memtable.
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
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}
