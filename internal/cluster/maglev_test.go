package cluster

import (
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = MemberName(i)
	}
	return out
}

// entryCounts reports how many table entries each of n backends owns.
func entryCounts(t *Table, n int) []int {
	counts := make([]int, n)
	for _, e := range t.entries {
		counts[e]++
	}
	return counts
}

// disruption compares table a over backends aNames to table b over
// bNames, matching backends by name, and reports the fraction of entries
// whose backend changed among those whose old backend still exists in b.
// Maglev's guarantee is that this is small: removing one backend mostly
// just reassigns that backend's own entries.
func disruption(a *Table, aNames []string, b *Table, bNames []string) float64 {
	idx := make(map[string]int32, len(bNames))
	for i, name := range bNames {
		idx[name] = int32(i)
	}
	surviving, moved := 0, 0
	for slot, e := range a.entries {
		want, ok := idx[aNames[e]]
		if !ok {
			continue // backend removed; its entries must move
		}
		surviving++
		if b.entries[slot] != want {
			moved++
		}
	}
	if surviving == 0 {
		return 0
	}
	return float64(moved) / float64(surviving)
}

// TestTableDeterministicPerSeed pins the property every other cluster
// guarantee builds on: same backends + size + seed -> bit-identical
// table; a different seed -> a different steering function.
func TestTableDeterministicPerSeed(t *testing.T) {
	a, err := NewTable(names(8), 251, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTable(names(8), 251, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.entries {
		if a.entries[i] != b.entries[i] {
			t.Fatalf("same seed, entry %d differs: %d vs %d", i, a.entries[i], b.entries[i])
		}
	}
	c, err := NewTable(names(8), 251, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.entries {
		if a.entries[i] != c.entries[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical tables")
	}
}

// TestTableBalance: round-robin slot claiming means per-backend entry
// counts differ by at most one — stronger than the Maglev paper's
// "within a few percent" because every backend claims exactly once per
// round.
func TestTableBalance(t *testing.T) {
	tb, err := NewTable(names(32), DefaultTableSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := entryCounts(tb, 32)
	min, max, total := counts[0], counts[0], 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		total += c
	}
	if total != DefaultTableSize {
		t.Fatalf("counts sum %d, want %d", total, DefaultTableSize)
	}
	if max-min > 1 {
		t.Fatalf("imbalance: min=%d max=%d (round-robin fill should differ by <=1)", min, max)
	}
}

// TestTableMinimalDisruption removes one backend of 32 and rebuilds: of
// the entries whose backend survived, only a small fraction may move.
// (The removed backend's ~1/32 of entries must move by definition and
// are excluded from the metric.)
func TestTableMinimalDisruption(t *testing.T) {
	all := names(32)
	before, err := NewTable(all, DefaultTableSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	without := append(append([]string(nil), all[:13]...), all[14:]...)
	after, err := NewTable(without, DefaultTableSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := disruption(before, all, after, without)
	if d > 0.2 {
		t.Fatalf("disruption %.3f after removing 1 of 32 backends; want small", d)
	}
	// Sanity floor: an unrelated hash-mod table would move ~31/32 of
	// surviving entries; a plain rebuild with the same membership moves 0.
	if same := disruption(before, all, before, all); same != 0 {
		t.Fatalf("self-disruption %.3f, want 0", same)
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(nil, 251, 1); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := NewTable(names(8), 256, 1); err == nil {
		t.Fatal("non-prime table size accepted")
	}
	if _, err := NewTable(names(8), 7, 1); err == nil {
		t.Fatal("table smaller than backend count accepted")
	}
}

func TestLookupInRange(t *testing.T) {
	tb, err := NewTable(names(5), 251, 9)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint32(0); h < 10_000; h++ {
		if b := tb.Lookup(h); b < 0 || b >= 5 {
			t.Fatalf("Lookup(%d) = %d, out of range", h, b)
		}
	}
}
