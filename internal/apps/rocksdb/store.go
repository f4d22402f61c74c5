// Package rocksdb provides the RocksDB-like key-value server the paper's
// §5.2/§5.3 experiments run: a store that is its key count, answering a
// GET by position and a SCAN by one bound and a min, plus the
// multi-threaded SO_REUSEPORT UDP server model whose scheduling Syrup
// policies control.
//
// The simulation charges the paper's measured service times in virtual
// time (GET 10–12 µs, SCAN ≈ 700 µs), since wall-clock cost of our Go store
// is not the paper's hardware, and the server never reads what its store
// returns. So the store renders and keeps no key or value: key i's value is
// i, and the store counts the work it is asked for.
package rocksdb

import (
	"fmt"
	"math"
	"sort"
)

// Store is the preloaded key space Key(0) … Key(n-1), key i holding the
// value i: n and the store's counters, nothing per key. The experiments
// send only GETs and SCANs, so nothing writes it after Preload. It belongs
// to the server of one host and takes no lock (DESIGN.md "One owner per
// host").
type Store struct {
	n      int
	loaded bool

	// Gets and Misses count the GETs that found their key and the ones
	// that did not; Scans counts the SCANs and Scanned the entries they
	// covered.
	Gets, Misses, Scans, Scanned uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Get returns key's value, its position: the one baseIndex reads off it.
func (s *Store) Get(key string) (int, bool) { return s.get(baseIndex(key)) }

// get is Get by position.
func (s *Store) get(i int) (int, bool) {
	if i < s.n {
		s.Gets++
		return i, true
	}
	s.Misses++
	return 0, false
}

// baseIndex inverts Key over its 12-byte form "key-DDDDDDDD": the position
// the key holds in a store of Key(0) … Key(n-1) if it is there at all. The
// inverse is exact, since Key(i) is that form for every i < 1e8 and Preload
// keeps n ≤ 1e8; any other string gets a position no store reaches.
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

// Scan covers up to limit keys from the first key >= start, in key order,
// and returns the positions [lo, hi) it covered, which are their values.
func (s *Store) Scan(start string, limit int) (lo, hi int) {
	return s.scan(s.lowerBound(start), limit)
}

// scan is Scan from position lo ≤ n.
func (s *Store) scan(lo, limit int) (int, int) {
	hi := lo + max(0, min(limit, s.n-lo))
	s.Scans++
	s.Scanned += uint64(hi - lo)
	return lo, hi
}

// lowerBound is the position of the first key >= start: a binary search
// that renders each probe into a buffer on the stack.
func (s *Store) lowerBound(start string) int {
	var buf [12]byte
	return sort.Search(s.n, func(i int) bool { return string(appendKey(buf[:0], i)) >= start })
}

// Preload loads the n sequential keys Key(0) … Key(n-1) into an empty
// store: it records n. Preload panics on a store that already holds a key
// space.
func (s *Store) Preload(n int) {
	if s.loaded {
		panic("rocksdb: Preload into a store that already holds data")
	}
	if n > 1e8 {
		panic("rocksdb: Preload of more than 1e8 keys") // Key(1e8) leaves the 12-byte form
	}
	s.n, s.loaded = n, true
}

// Key renders the canonical preloaded key for index i, "key-%08d".
func Key(i int) string { return string(appendKey(make([]byte, 0, 12), i)) }

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
