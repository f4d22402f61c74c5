// Package rocksdb provides the RocksDB-like key-value server the paper's
// §5.2/§5.3 experiments run: a real (if miniature) LSM storage engine —
// mutable memtable, immutable sorted runs, a preloaded base level, merged
// iterators for SCANs — plus the multi-threaded SO_REUSEPORT UDP server
// model whose scheduling Syrup policies control.
//
// The storage engine does real work per request; the simulation charges
// the paper's measured service times in virtual time (GET 10–12 µs, SCAN
// ≈ 700 µs), since wall-clock cost of our Go engine is not the paper's
// hardware.
package rocksdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// memtableFlushSize is the number of entries after which the memtable is
// sealed into an immutable sorted run.
const memtableFlushSize = 4096

// maxRuns triggers a full compaction when exceeded.
const maxRuns = 8

// maxLevels bounds what a merge stacks: the memtable, up to maxRuns+1 runs
// (a compaction merges the one over the limit) or maxRuns runs and the base.
const maxLevels = maxRuns + 2

// Store is a miniature LSM tree: one mutable memtable over a stack of
// immutable sorted runs, newest first, over the preloaded base level. It
// belongs to the server of one host and takes no lock (DESIGN.md "One
// owner per host").
type Store struct {
	// mem is the memtable: a run under construction, kept sorted by
	// binary-search insert, so reads, scans and flushes treat it like any
	// other run. Array-backed on purpose: ascending loads append, a flush
	// hands the arrays over, and no per-entry node is ever allocated.
	mem  run
	runs []run // runs[0] is newest
	// base is what Preload loaded: Key(0) … Key(n-1) in order, the oldest
	// level, below every run and never compacted. Its arrays are the
	// rendered keys and values themselves, and Get finds a key in it by
	// position (baseIndex), not by search.
	base run

	// Stats.
	Gets, Scans, Puts, Flushes, Compactions uint64
}

// run is a sorted, duplicate-free key/value array pair. Its first and last
// keys are its fence: a key outside them is not in the run.
type run struct {
	keys   []string
	values []string
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// find returns where key is, or would be inserted, and whether it is
// there. Keys outside the fence — ascending loads, and most lookups in a
// run that holds a few keys — cost two comparisons and no search.
func (r *run) find(key string) (int, bool) {
	n := len(r.keys)
	if n == 0 || key > r.keys[n-1] {
		return n, false
	}
	if key < r.keys[0] {
		return 0, false
	}
	i := sort.SearchStrings(r.keys, key)
	return i, r.keys[i] == key
}

// put overwrites key in place or inserts it in order.
func (r *run) put(key, value string) {
	if i, ok := r.find(key); ok {
		r.values[i] = value
	} else {
		r.keys, r.values = slices.Insert(r.keys, i, key), slices.Insert(r.values, i, value)
	}
}

// Put inserts or overwrites a key.
func (s *Store) Put(key, value string) {
	s.Puts++
	s.mem.put(key, value)
	if len(s.mem.keys) >= memtableFlushSize {
		s.flush()
	}
}

// Get returns the newest value for key: the memtable, then every run
// newest first, each behind its fence, then the base by position.
func (s *Store) Get(key string) (string, bool) {
	s.Gets++
	if i, ok := s.mem.find(key); ok {
		return s.mem.values[i], true
	}
	for j := range s.runs {
		if i, ok := s.runs[j].find(key); ok {
			return s.runs[j].values[i], true
		}
	}
	if i := baseIndex(key); i < len(s.base.keys) && s.base.keys[i] == key {
		return s.base.values[i], true
	}
	return "", false
}

// baseIndex inverts Key over its 12-byte form "key-DDDDDDDD": the position
// the key holds in a base of Key(0) … Key(n-1) if it is there at all. Any
// other string gets a position no base reaches; the base holds no other
// strings (Preload keeps n ≤ 1e8). Get still confirms the position with one
// compare, so it is exact whatever keys preload was handed.
func baseIndex(key string) int {
	if len(key) != 12 || key[:4] != "key-" {
		return math.MaxInt
	}
	i := 0
	for j := 4; j < 12; j++ {
		c := key[j] - '0'
		if c > 9 {
			return math.MaxInt
		}
		i = i*10 + int(c)
	}
	return i
}

// Scan returns up to limit key/value pairs with key >= start, in key
// order, merging the memtable, all runs and the base (newest version
// wins).
func (s *Store) Scan(start string, limit int) []KV { return s.AppendScan(nil, start, limit) }

// AppendScan is Scan appending to dst: a caller that scans into a buffer
// it keeps allocates nothing once the buffer has grown to limit.
func (s *Store) AppendScan(dst []KV, start string, limit int) []KV {
	s.Scans++
	var buf [maxLevels]iterator
	m := s.mergeFrom(buf[:0], start)
	n := min(limit, m.remaining())
	if n <= 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]KV, 0, len(dst)+n), dst...)
	}
	for range n {
		k, v, ok := m.next()
		if !ok {
			break
		}
		dst = append(dst, KV{Key: k, Value: v})
	}
	return dst
}

// KV is one scan result entry.
type KV struct {
	Key, Value string
}

// Len reports the number of live entries (shadowed versions count once).
func (s *Store) Len() int {
	var buf [maxLevels]iterator
	m := s.mergeFrom(buf[:0], "")
	n := 0
	for _, _, ok := m.next(); ok; _, _, ok = m.next() {
		n++
	}
	return n
}

// flush seals the memtable: its arrays become the newest run as is.
func (s *Store) flush() {
	if len(s.mem.keys) == 0 {
		return
	}
	s.Flushes++
	s.runs = append([]run{s.mem}, s.runs...)
	s.mem = run{}
	if len(s.runs) > maxRuns {
		s.compact()
	}
}

// compact merges all runs (the memtable was just sealed, so it is
// empty) into one, dropping shadowed versions. The base stays as it is.
func (s *Store) compact() {
	s.Compactions++
	var buf [maxLevels]iterator
	m := seek(buf[:0], "", s.runs...)
	n := m.remaining()
	out := run{keys: make([]string, 0, n), values: make([]string, 0, n)}
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		out.keys, out.values = append(out.keys, k), append(out.values, v)
	}
	s.runs = []run{out}
}

// iterator walks one run in key order.
type iterator struct {
	run
	pos int
}

// merger is a newest-first stack of iterators read as one ordered stream.
type merger []iterator

// mergeFrom seeks the memtable, every run and the base to start, newest
// first, onto buf.
func (s *Store) mergeFrom(buf []iterator, start string) merger {
	m := seek(buf, start, s.mem)
	m = seek(m, start, s.runs...)
	return seek(m, start, s.base)
}

// seek seeks each run to start (O(log n) each) and stacks the ones with
// anything at or past it onto m, in the order given.
func seek(m merger, start string, runs ...run) merger {
	for _, r := range runs {
		if pos := sort.SearchStrings(r.keys, start); pos < len(r.keys) {
			m = append(m, iterator{run: r, pos: pos})
		}
	}
	return m
}

// remaining bounds how many entries next can still yield.
func (m merger) remaining() int {
	n := 0
	for i := range m {
		n += len(m[i].keys) - m[i].pos
	}
	return n
}

// next yields the smallest current key; ties resolve to the newest
// iterator (lowest index), and older versions of the key are stepped over.
func (m merger) next() (key, value string, ok bool) {
	best := -1
	for i := range m {
		if it := &m[i]; it.pos < len(it.keys) && (best < 0 || it.keys[it.pos] < key) {
			best, key = i, it.keys[it.pos]
		}
	}
	if best < 0 {
		return "", "", false
	}
	value = m[best].values[m[best].pos]
	for i := range m {
		if it := &m[i]; it.pos < len(it.keys) && it.keys[it.pos] == key {
			it.pos++
		}
	}
	return key, value, true
}

// Preload bulk-loads the n sequential keys Key(i) → "value-<i>" into an
// empty store as its base level, so GETs and SCANs have data to touch. The
// keys are rendered into one string and the values into another, each
// sliced per entry, and those slices are the base's arrays: a preload
// allocates a few times, not per key, and counts no Put or flush. Preload
// panics on a store that already holds data, whose older versions would
// otherwise shadow the base loaded after them.
func (s *Store) Preload(n int) { s.preload(renderKeys(n)) }

// preload is Preload over keys already rendered: the store keeps the very
// slice it is given, so a server that looks keys up by renderKeys(n)
// shares it with its store instead of holding a second copy.
func (s *Store) preload(keys []string) {
	if s.base.keys != nil || len(s.mem.keys) > 0 || len(s.runs) > 0 {
		panic("rocksdb: Preload into a store that already holds data")
	}
	if len(keys) > 1e8 {
		panic("rocksdb: Preload of more than 1e8 keys") // Key(1e8) leaves the 12-byte form
	}
	s.base = run{keys: keys, values: render(len(keys), 6+len(strconv.Itoa(len(keys))), func(b []byte, i int) []byte {
		return strconv.AppendInt(append(b, "value-"...), int64(i), 10)
	})}
}

// Key renders the canonical preloaded key for index i, "key-%08d".
func Key(i int) string { return string(appendKey(make([]byte, 0, 12), i)) }

// renderKeys renders Key(0) … Key(n-1) into one string, sliced per key.
func renderKeys(n int) []string { return render(n, 12, appendKey) }

// appendKey appends Key(i) to b; the common range skips fmt.
func appendKey(b []byte, i int) []byte {
	if i < 0 || i >= 1e8 {
		return fmt.Appendf(b, "key-%08d", i)
	}
	b = append(b, "key-00000000"...)
	for j := len(b) - 1; i > 0; j, i = j-1, i/10 {
		b[j] = byte('0' + i%10)
	}
	return b
}

// render appends the renderings of 0 … n-1 (about width bytes each) to
// one buffer, converts it to a string once and returns that string sliced
// per index: n strings in four allocations.
func render(n, width int, appendTo func([]byte, int) []byte) []string {
	buf := make([]byte, 0, n*width)
	ends := make([]int, n)
	for i := range ends {
		buf = appendTo(buf, i)
		ends[i] = len(buf)
	}
	all := string(buf)
	out := make([]string, n)
	lo := 0
	for i, hi := range ends {
		out[i], lo = all[lo:hi], hi
	}
	return out
}
