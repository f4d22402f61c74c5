// Package rocksdb provides the RocksDB-like key-value server the paper's
// §5.2/§5.3 experiments run: a store over a preloaded key space, answering
// GETs by position and SCANs by one search and a slice walk, plus the
// multi-threaded SO_REUSEPORT UDP server model whose scheduling Syrup
// policies control.
//
// The store does real work per request; the simulation charges the paper's
// measured service times in virtual time (GET 10–12 µs, SCAN ≈ 700 µs),
// since wall-clock cost of our Go store is not the paper's hardware.
package rocksdb

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Store is the preloaded key space: Key(0) … Key(n-1) in order, each with
// its value. The experiments send only GETs and SCANs, so nothing writes
// it after Preload. It belongs to the server of one host and takes no lock
// (DESIGN.md "One owner per host").
type Store struct {
	// keys and values are what Preload loaded: the rendered strings
	// themselves, sorted by key. Get finds a key by position (baseIndex),
	// not by search.
	keys, values []string

	// Stats.
	Gets, Scans uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Get returns the value for key: the position baseIndex reads off the key,
// confirmed by one compare.
func (s *Store) Get(key string) (string, bool) {
	s.Gets++
	if i := baseIndex(key); i < len(s.keys) && s.keys[i] == key {
		return s.values[i], true
	}
	return "", false
}

// baseIndex inverts Key over its 12-byte form "key-DDDDDDDD": the position
// the key holds in a store of Key(0) … Key(n-1) if it is there at all. Any
// other string gets a position no store reaches; the store holds no other
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
// order.
func (s *Store) Scan(start string, limit int) []KV { return s.AppendScan(nil, start, limit) }

// AppendScan is Scan appending to dst: a caller that scans into a buffer
// it keeps allocates nothing once the buffer has grown to limit.
func (s *Store) AppendScan(dst []KV, start string, limit int) []KV {
	s.Scans++
	i := sort.SearchStrings(s.keys, start)
	n := min(limit, len(s.keys)-i)
	if n <= 0 {
		return dst
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]KV, 0, len(dst)+n), dst...)
	}
	for j := i; j < i+n; j++ {
		dst = append(dst, KV{Key: s.keys[j], Value: s.values[j]})
	}
	return dst
}

// KV is one scan result entry.
type KV struct {
	Key, Value string
}

// Preload bulk-loads the n sequential keys Key(i) → "value-<i>" into an
// empty store, so GETs and SCANs have data to touch. The keys are rendered
// into one string and the values into another, each sliced per entry, and
// those slices are the store's arrays: a preload allocates a few times, not
// per key. Preload panics on a store that already holds a key space.
func (s *Store) Preload(n int) { s.preload(renderKeys(n)) }

// preload is Preload over keys already rendered: the store keeps the very
// slice it is given, so a server that looks keys up by renderKeys(n)
// shares it with its store instead of holding a second copy.
func (s *Store) preload(keys []string) {
	if s.keys != nil {
		panic("rocksdb: Preload into a store that already holds data")
	}
	if len(keys) > 1e8 {
		panic("rocksdb: Preload of more than 1e8 keys") // Key(1e8) leaves the 12-byte form
	}
	s.keys, s.values = keys, render(len(keys), 6+len(strconv.Itoa(len(keys))), func(b []byte, i int) []byte {
		return strconv.AppendInt(append(b, "value-"...), int64(i), 10)
	})
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
