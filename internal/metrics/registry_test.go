package metrics

import (
	"sort"
	"sync"
	"testing"
)

// TestCursorDeltaConcurrent: increments racing with one consumer's delta
// reads must never be lost or double-counted — the deltas plus the final
// residue always sum to the total number of increments. Run under
// `make trace-check` with -race.
func TestCursorDeltaConcurrent(t *testing.T) {
	c := NewCounter("t_delta_race")
	cu := NewCursor()
	const writers = 4
	const perWriter = 10000

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}()
	}

	// Snapshot loop racing the writers; collected is only touched here
	// and read after the goroutine exits.
	var collected uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				collected += cu.DeltaOf(c)
			}
		}
	}()

	writersWG.Wait()
	close(stop)
	<-done

	residue := cu.DeltaOf(c)
	if got := collected + residue; got != writers*perWriter {
		t.Fatalf("deltas sum to %d, want %d", got, writers*perWriter)
	}
	if c.Load() != writers*perWriter {
		t.Fatalf("Load = %d, want %d", c.Load(), writers*perWriter)
	}
}

func TestCountersSortedDeterministic(t *testing.T) {
	NewCounter("t_sorted_b").Add(2)
	NewCounter("t_sorted_a").Add(1)
	s := CountersSorted()
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].Name < s[j].Name }) {
		t.Fatal("CountersSorted is not name-sorted")
	}
	// Same content as the map form.
	m := Counters()
	if len(s) != len(m) {
		t.Fatalf("slice has %d entries, map %d", len(s), len(m))
	}
	for _, cv := range s {
		if m[cv.Name] != cv.Value {
			t.Fatalf("%s: slice %d != map %d", cv.Name, cv.Value, m[cv.Name])
		}
	}
	// And stable across calls.
	s2 := CountersSorted()
	for i := range s {
		if s[i].Name != s2[i].Name {
			t.Fatalf("order changed between calls at %d: %s vs %s", i, s[i].Name, s2[i].Name)
		}
	}
}

func TestHistogramRegistry(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	RegisterHistogram("t_hist", h)
	if got := Histograms()["t_hist"]; got != h {
		t.Fatal("histogram not registered")
	}
	names := HistogramNames()
	found := false
	for _, n := range names {
		if n == "t_hist" {
			found = true
		}
	}
	if !found || !sort.StringsAreSorted(names) {
		t.Fatalf("HistogramNames = %v", names)
	}
	// Re-registering replaces; nil unregisters.
	h2 := NewHistogram()
	RegisterHistogram("t_hist", h2)
	if Histograms()["t_hist"] != h2 {
		t.Fatal("re-register did not replace")
	}
	RegisterHistogram("t_hist", nil)
	if _, ok := Histograms()["t_hist"]; ok {
		t.Fatal("nil register did not remove")
	}
}

// TestHistogramRegistryGenerations mirrors the warmup/measure reset
// pattern: each phase allocates a fresh histogram and re-registers it
// under the same name, and readers must always see the latest
// generation — never a stale reference to the warmup data.
func TestHistogramRegistryGenerations(t *testing.T) {
	warmup := NewHistogram()
	warmup.Record(999)
	RegisterHistogram("t_hist_gen", warmup)

	// Phase boundary: the owner discards warmup samples by swapping in a
	// fresh histogram, exactly as syrupd does between warmup and measure.
	measure := NewHistogram()
	measure.Record(50)
	RegisterHistogram("t_hist_gen", measure)

	got := Histograms()["t_hist_gen"]
	if got != measure {
		t.Fatal("registry serves the warmup generation after re-register")
	}
	if got.Count() != 1 || got.Max() != 50 {
		t.Fatalf("latest generation has count=%d max=%d, want 1/50", got.Count(), got.Max())
	}
	RegisterHistogram("t_hist_gen", nil)
}

// TestHistogramsSnapshotIsACopy: the map returned by Histograms is the
// caller's to mutate — deleting or inserting entries must not reach the
// registry, and later registry changes must not reach an older snapshot.
func TestHistogramsSnapshotIsACopy(t *testing.T) {
	h := NewHistogram()
	RegisterHistogram("t_hist_copy", h)
	defer RegisterHistogram("t_hist_copy", nil)

	snap := Histograms()
	delete(snap, "t_hist_copy")
	snap["t_hist_rogue"] = NewHistogram()

	if Histograms()["t_hist_copy"] != h {
		t.Fatal("deleting from a snapshot mutated the registry")
	}
	if _, ok := Histograms()["t_hist_rogue"]; ok {
		t.Fatal("inserting into a snapshot mutated the registry")
	}

	// A snapshot taken before an unregister still holds its reference;
	// only fresh snapshots observe the change.
	old := Histograms()
	RegisterHistogram("t_hist_copy", nil)
	if old["t_hist_copy"] != h {
		t.Fatal("unregister reached a previously taken snapshot")
	}
	if _, ok := Histograms()["t_hist_copy"]; ok {
		t.Fatal("unregister not visible to a fresh snapshot")
	}
	RegisterHistogram("t_hist_copy", h) // restore for the deferred cleanup
}
