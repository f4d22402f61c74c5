// Package cluster is the fleet layer over the per-host simulation: N
// independent syrup.Host instances (engine-per-host, each with its own
// seeded PRNG) behind an L4 load balancer with Maglev-style
// consistent-hash flow steering, plus a control plane that wraps each
// host's syrupd for fleet-wide policy rollout (staged/canary deploys).
//
// Determinism is the load-bearing property: every cluster decision — the
// Maglev table, per-member seeds, flow assignment, canary selection — is
// derived from the cluster seed alone, and per-host simulations never
// share mutable state, so members can run on a worker pool (internal/par)
// with bit-identical results at any worker count.
package cluster

import (
	"fmt"
)

// DefaultTableSize is the default Maglev lookup-table size: a prime
// (65537) large enough that per-backend entry counts differ by well under
// 1% for any plausible fleet (the Maglev paper recommends size >= 100x
// the backend count).
const DefaultTableSize = 65537

// Table is a Maglev consistent-hash lookup table (Eisenbud et al.,
// NSDI'16): each backend generates a seeded permutation of table slots
// and backends take turns claiming their next unclaimed preference, so
// the table is (a) near-perfectly balanced and (b) minimally disrupted
// when a backend is added or removed — properties the tests pin down.
type Table struct {
	entries []int32 // entries[slot] = backend index
}

// splitmix64 is the seed/stream mixer used everywhere in this package:
// fast, full-period, and good enough avalanche that consecutive inputs
// give independent-looking outputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 hashes a backend name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// isPrime is trial division: table sizes are validated once at build.
func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NewTable builds the lookup table over the named backends. size must be
// prime (the permutation step-size construction requires it) and at
// least the backend count; equal seeds and backend lists yield identical
// tables.
func NewTable(backends []string, size int, seed uint64) (*Table, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: maglev table needs at least one backend")
	}
	if size < len(backends) {
		return nil, fmt.Errorf("cluster: maglev table size %d < %d backends", size, len(backends))
	}
	if !isPrime(size) {
		return nil, fmt.Errorf("cluster: maglev table size %d is not prime", size)
	}
	t := &Table{entries: make([]int32, size)}
	n := len(backends)
	offset := make([]int, n)
	skip := make([]int, n)
	next := make([]int, n)
	for i, name := range backends {
		h := splitmix64(fnv64(name) ^ seed)
		offset[i] = int(h % uint64(size))
		skip[i] = int(splitmix64(h)%uint64(size-1)) + 1
	}
	for i := range t.entries {
		t.entries[i] = -1
	}
	// Round-robin filling: each backend claims its next unclaimed
	// preferred slot until the table is full.
	for filled := 0; ; {
		for i := 0; i < n; i++ {
			c := (offset[i] + next[i]*skip[i]) % size
			for t.entries[c] >= 0 {
				next[i]++
				c = (offset[i] + next[i]*skip[i]) % size
			}
			t.entries[c] = int32(i)
			next[i]++
			filled++
			if filled == size {
				return t, nil
			}
		}
	}
}

// Lookup maps a flow hash to its backend index.
func (t *Table) Lookup(flowHash uint32) int {
	return int(t.entries[flowHash%uint32(len(t.entries))])
}
