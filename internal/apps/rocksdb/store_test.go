package rocksdb

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// TestKeyFormat: Key is "key-%08d" over the whole int range, the fast path
// and the fmt fallback alike.
func TestKeyFormat(t *testing.T) {
	for _, i := range []int{0, 7, 99, 100, 12_345_678, 99_999_999, 100_000_000, -1, -12_345_678} {
		if got, want := Key(i), fmt.Sprintf("key-%08d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestPreloadAndLen: Preload loads exactly the n keys Key(i) → i, and
// allocates nothing per key: a new store and its preload allocate once, for
// the store.
func TestPreloadAndLen(t *testing.T) {
	s := NewStore()
	s.Preload(500)
	if lo, hi := s.Scan("", pastLen); lo != 0 || hi != 500 {
		t.Fatalf("a full scan covers [%d, %d), want [0, 500)", lo, hi)
	}
	for _, i := range []int{0, 7, 499} {
		if v, ok := s.Get(Key(i)); !ok || v != i {
			t.Fatalf("Get(%s) = %d, %v", Key(i), v, ok)
		}
	}
	if v, ok := s.Get(Key(500)); ok {
		t.Fatalf("Get(%s) = %d, found past the key space", Key(500), v)
	}
	if allocs := testing.AllocsPerRun(3, func() { NewStore().Preload(10_000) }); allocs > 1 {
		t.Fatalf("NewStore().Preload(10000): %v allocs, want no more than 1", allocs)
	}
}

// oracle is the key space Preload(n) must hold, written the plain way: a
// map from each key to its value for Get, and the keys sorted for a Scan
// that walks them from the top and returns the positions it covered. It
// counts what the store must count.
type oracle struct {
	m    map[string]int
	keys []string

	gets, misses, scans, scanned uint64
}

func newOracle(n int) *oracle {
	o := &oracle{m: make(map[string]int, n)}
	for i := range n {
		k := fmt.Sprintf("key-%08d", i)
		o.m[k] = i
		o.keys = append(o.keys, k)
	}
	sort.Strings(o.keys)
	return o
}

func (o *oracle) Get(key string) (int, bool) {
	v, ok := o.m[key]
	if ok {
		o.gets++
	} else {
		o.misses++
	}
	return v, ok
}

func (o *oracle) Scan(start string, limit int) (lo, hi int) {
	for lo < len(o.keys) && o.keys[lo] < start {
		lo++
	}
	for hi = lo; hi < len(o.keys) && hi-lo < limit; hi++ {
		if o.m[o.keys[hi]] != hi {
			panic("oracle: the key at a scan position does not hold that position as its value")
		}
	}
	o.scans++
	o.scanned += uint64(hi - lo)
	return lo, hi
}

// storePair drives a store preloaded with n keys and the oracle for n with
// the same reads and compares every answer and, after it, every counter.
type storePair struct {
	t testing.TB
	s *Store
	o *oracle
}

func newStorePair(t testing.TB, n int) *storePair {
	s := NewStore()
	s.Preload(n)
	return &storePair{t: t, s: s, o: newOracle(n)}
}

func (p *storePair) get(k string) {
	p.t.Helper()
	gv, gok := p.s.Get(k)
	wv, wok := p.o.Get(k)
	if gv != wv || gok != wok {
		p.t.Fatalf("Get(%q) = %d,%v; oracle %d,%v", k, gv, gok, wv, wok)
	}
	p.counters()
}

func (p *storePair) scan(start string, limit int) {
	p.t.Helper()
	glo, ghi := p.s.Scan(start, limit)
	wlo, whi := p.o.Scan(start, limit)
	if glo != wlo || ghi != whi {
		p.t.Fatalf("Scan(%q, %d) = [%d, %d); oracle [%d, %d)", start, limit, glo, ghi, wlo, whi)
	}
	p.counters()
}

func (p *storePair) counters() {
	p.t.Helper()
	s, o := p.s, p.o
	if s.Gets != o.gets || s.Misses != o.misses || s.Scans != o.scans || s.Scanned != o.scanned {
		p.t.Fatalf("store counts %d gets, %d misses, %d scans over %d entries; oracle %d, %d, %d over %d",
			s.Gets, s.Misses, s.Scans, s.Scanned, o.gets, o.misses, o.scans, o.scanned)
	}
}

// nearBase lists keys next to a key space of n that it does not hold: just
// past its end, between its last key and the next, and strings that almost
// invert to a position (too short, a letter or the bytes either side of the
// digits for a digit, a sign, a ninth digit).
func nearBase(n int) []string {
	return []string{Key(n), Key(n-1) + "~", "key-0000001", "key-0000000a", "key-0000000:", "key-0000000/", Key(-1), Key(1e8)}
}

// pastLen is a scan limit above any store's key count here that still fits
// a 32-bit int.
const pastLen = 1 << 30

// TestPropertyStoreMatchesMap: over preloads of random size, Get agrees
// with a plain map on keys inside and past the key space, and a full scan
// covers every key once.
func TestPropertyStoreMatchesMap(t *testing.T) {
	f := func(size uint16, probes []uint16) bool {
		n := int(size) % 3000
		s := NewStore()
		s.Preload(n)
		oracle := newOracle(n).m
		for _, pr := range probes {
			k := Key(int(pr) % (n + 100))
			got, ok := s.Get(k)
			if want, wok := oracle[k]; got != want || ok != wok {
				return false
			}
		}
		lo, hi := s.Scan("", pastLen)
		return lo == 0 && hi == len(oracle) && s.Scanned == uint64(len(oracle))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreDifferentialDirected pins the edges of a lookup by position and
// a scan by search on the smallest key spaces: none, an empty one and one
// key, each probed on every key at an end, next to the key space and
// malformed, and scanned from before, inside and past the keys with limits
// at and around zero and past the end.
func TestStoreDifferentialDirected(t *testing.T) {
	// A store never preloaded answers like an empty key space.
	p := &storePair{t: t, s: NewStore(), o: newOracle(0)}
	p.get(Key(0))
	p.scan("", pastLen)
	for _, n := range []int{0, 1} {
		p := newStorePair(t, n)
		keys := append([]string{"", "0", "a", "key-", "zzz", Key(0), Key(1)}, nearBase(n)...)
		for _, k := range keys {
			p.get(k)
		}
		for _, start := range keys {
			for _, limit := range []int{-1, 0, 1, 3, pastLen} {
				p.scan(start, limit)
			}
		}
	}
}

// TestStoreDifferentialOverBase: Get and Scan over the server's 10 000-key
// base agree with the oracle on its first, middle and last keys, on keys
// next to it and malformed, and on scans that start before it, between two
// of its keys, inside it and past it.
func TestStoreDifferentialOverBase(t *testing.T) {
	const n = keySpace
	p := newStorePair(t, n)
	for _, i := range []int{0, 1, 4095, 4096, 5000, n - 2, n - 1} {
		p.get(Key(i))
	}
	for _, k := range nearBase(n) {
		p.get(k)
		p.scan(k, 5)
	}
	for _, start := range []string{"", "a", Key(0), Key(4095) + "~", Key(n/2) + "~", Key(n - 3), Key(n), "zzz"} {
		for _, limit := range []int{-1, 0, 1, 100, pastLen} {
			p.scan(start, limit)
		}
	}
}

// TestStoreDifferentialRandom drives seeded random Gets and Scans against
// the oracle over key spaces of several sizes.
func TestStoreDifferentialRandom(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n    int
	}{{1, 0}, {2, 10_000}, {3, 777}} {
		rng := rand.New(rand.NewPCG(tc.seed, 16))
		p := newStorePair(t, tc.n)
		edges := nearBase(tc.n)
		anyKey := func() string {
			switch rng.IntN(10) {
			case 0:
				return Key(tc.n + rng.IntN(1000)) // past the key space
			case 1:
				return Key(rng.IntN(tc.n+1)) + "~" // between keys
			case 2:
				return edges[rng.IntN(len(edges))]
			default:
				return Key(rng.IntN(tc.n + 1))
			}
		}
		for range 20_000 {
			if rng.IntN(10) != 0 {
				p.get(anyKey())
				continue
			}
			start := anyKey()
			if rng.IntN(8) == 0 {
				start = [...]string{"", "zzz"}[rng.IntN(2)]
			}
			limit := [...]int{-1, 0, 1, 7, 100}[rng.IntN(5)]
			if rng.IntN(40) == 0 {
				limit = pastLen
			}
			p.scan(start, limit)
		}
	}
}

// FuzzStore decodes bytes into a Preload followed by Get and Scan
// operations, drives the store and the oracle with them and compares every
// read and every counter. The first two bytes are the preload size (mod 12 001); each
// operation is three bytes: kind (low 3 bits) and parameter (high 5), then
// a 16-bit key argument. Keys are Key(a mod 12 500), reaching past any key
// space, or, for the top 16 arguments, a key next to it or malformed. Kind
// 6 scans with limit 4·parameter − 8, from −8 to 116; every other kind
// gets.
func FuzzStore(f *testing.F) {
	f.Add([]byte{0x10, 0x27, 0x04, 0x88, 0x13, 0x06, 0x00, 0x00, 0x07, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % 12_001
		p := newStorePair(t, n)
		edges := nearBase(n)
		key := func(a int) string {
			if a >= 0xfff0 {
				return edges[a%len(edges)]
			}
			return Key(a % 12_500)
		}
		ops := data[2:]
		for i := 0; i < 256 && len(ops) >= 3; i, ops = i+1, ops[3:] {
			param, a := int(ops[0]>>3), int(binary.LittleEndian.Uint16(ops[1:3]))
			if ops[0]&7 == 6 {
				p.scan(key(a), 4*param-8)
			} else {
				p.get(key(a))
			}
		}
	})
}

// TestPreloadOnlyIntoAnEmptyStore: Preload loads a key space into a store
// that has none. Into one that already holds one, even an empty one, it
// panics.
func TestPreloadOnlyIntoAnEmptyStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(*Store)
	}{
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

// TestZeroAllocStore: Get on keys the store holds, keys past it and
// malformed keys, and Scan from before, inside and past the keys, allocate
// nothing.
func TestZeroAllocStore(t *testing.T) {
	s := NewStore()
	s.Preload(10_000)
	keys := append([]string{Key(9_999), Key(5_000), Key(1), Key(20_000)}, nearBase(10_000)...)
	if n := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			s.Get(k)
		}
	}); n != 0 {
		t.Fatalf("Store.Get allocates %.1f times per %d lookups", n, len(keys))
	}
	starts := append([]string{"", "a", "zzz"}, keys...)
	if n := testing.AllocsPerRun(200, func() {
		for _, k := range starts {
			s.Scan(k, 100)
		}
	}); n != 0 {
		t.Fatalf("Store.Scan allocates %.1f times per %d scans", n, len(starts))
	}
}

// BenchmarkStoreGet looks up keys the store holds and keys past its end.
func BenchmarkStoreGet(b *testing.B) {
	const n = 10_000
	s := NewStore()
	s.Preload(n)
	for _, bc := range []struct {
		name  string
		key   func(i int) int
		found bool
	}{
		{"base", func(i int) int { return i }, true},
		{"miss", func(i int) int { return n + i }, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			keys := make([]string, 1024)
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range keys {
				keys[i] = Key(bc.key(rng.IntN(1024)))
			}
			if _, ok := s.Get(keys[0]); ok != bc.found {
				b.Fatalf("Get(%s) found = %v, want %v", keys[0], ok, bc.found)
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
// the 10 K preloaded keys, every one of them found.
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
