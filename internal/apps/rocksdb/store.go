// Package rocksdb provides the RocksDB-like key-value server the paper's
// §5.2/§5.3 experiments run: a real (if miniature) LSM storage engine —
// mutable memtable, immutable sorted runs, merged iterators for SCANs —
// plus the multi-threaded SO_REUSEPORT UDP server model whose scheduling
// Syrup policies control.
//
// The storage engine does real work per request; the simulation charges
// the paper's measured service times in virtual time (GET 10–12 µs, SCAN
// ≈ 700 µs), since wall-clock cost of our Go engine is not the paper's
// hardware.
package rocksdb

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// memtableFlushSize is the number of entries after which the memtable is
// sealed into an immutable sorted run.
const memtableFlushSize = 4096

// maxRuns triggers a full compaction when exceeded.
const maxRuns = 8

// Store is a miniature LSM tree: one mutable memtable plus a stack of
// immutable sorted runs, newest first. It belongs to the server of one
// host and takes no lock (DESIGN.md "One owner per host").
type Store struct {
	// index is the point-lookup index: key → newest value, written by Put
	// and probed once by Get. Flush and compaction
	// move versions between runs but never change which value is newest,
	// and the store has no delete, so neither touches it. The memtable and
	// the runs stay the ordered structures Scan, Len and compaction read.
	index map[string]string
	// mem is the memtable: a run under construction, kept sorted by
	// binary-search insert, so reads, scans and flushes treat it like any
	// other run. Array-backed on purpose: ascending loads append, a flush
	// hands the arrays over, and no per-entry node is ever allocated.
	mem  run
	runs []run // runs[0] is newest

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
func NewStore() *Store { return &Store{index: make(map[string]string)} }

// find returns where key is, or would be inserted, and whether it is
// there. Keys outside the fence — ascending loads like Preload — cost two
// comparisons and no search.
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
	s.index[key] = value
	s.mem.put(key, value)
	if len(s.mem.keys) >= memtableFlushSize {
		s.flush()
	}
}

// Get returns the newest value for key.
func (s *Store) Get(key string) (string, bool) {
	s.Gets++
	v, ok := s.index[key]
	return v, ok
}

// Scan returns up to limit key/value pairs with key >= start, in key
// order, merging the memtable and all runs (newest version wins).
func (s *Store) Scan(start string, limit int) []KV { return s.AppendScan(nil, start, limit) }

// AppendScan is Scan appending to dst: a caller that scans into a buffer
// it keeps allocates nothing once the buffer has grown to limit.
func (s *Store) AppendScan(dst []KV, start string, limit int) []KV {
	s.Scans++
	var buf [maxRuns + 1]iterator
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
	var buf [maxRuns + 1]iterator
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
// empty) into one, dropping shadowed versions.
func (s *Store) compact() {
	s.Compactions++
	var buf [maxRuns + 1]iterator
	m := s.mergeFrom(buf[:0], "")
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

// mergeFrom seeks the memtable and every run to start (O(log n) each) and
// stacks the ones with anything at or past it, newest first, onto buf.
func (s *Store) mergeFrom(buf []iterator, start string) merger {
	m := merger(buf)
	if pos := sort.SearchStrings(s.mem.keys, start); pos < len(s.mem.keys) {
		m = append(m, iterator{run: s.mem, pos: pos})
	}
	for _, r := range s.runs {
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

// Preload puts the n sequential keys Key(i) → "value-<i>", in ascending
// order, so GETs and SCANs have data to touch. The keys are rendered into
// one string and the values into another, each sliced per entry: a preload
// allocates per memtable, not per key.
func (s *Store) Preload(n int) { s.preload(renderKeys(n)) }

// preload is Preload over keys already rendered: the store keeps the very
// strings it is given, so a server that looks keys up by renderKeys(n)
// shares them with its store instead of holding a second copy.
func (s *Store) preload(keys []string) {
	values := render(len(keys), 6+len(strconv.Itoa(len(keys))), func(b []byte, i int) []byte {
		return strconv.AppendInt(append(b, "value-"...), int64(i), 10)
	})
	if len(s.index) == 0 {
		s.index = make(map[string]string, len(keys)) // sized once instead of grown
	}
	for i, k := range keys {
		s.Put(k, values[i])
	}
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
