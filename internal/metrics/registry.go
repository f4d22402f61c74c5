package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotonically increasing counter. Counters register
// themselves in a process-wide registry so operational surfaces (syrupd's
// stats op, shutdown summaries) can snapshot everything without each
// subsystem threading its own plumbing.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

var (
	registryMu sync.Mutex
	registry   = map[string]*Counter{}
)

// NewCounter returns the counter registered under name, creating it on
// first use. Calling it twice with the same name yields the same counter,
// so packages can declare counters in var blocks without coordination.
func NewCounter(name string) *Counter {
	registryMu.Lock()
	defer registryMu.Unlock()
	if c, ok := registry[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry[name] = c
	return c
}

// Counters snapshots every registered counter.
func Counters() map[string]uint64 {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make(map[string]uint64, len(registry))
	for name, c := range registry {
		out[name] = c.Load()
	}
	return out
}

// CounterNames lists registered counter names, sorted, for stable output.
func CounterNames() []string {
	registryMu.Lock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.Unlock()
	sort.Strings(names)
	return names
}

// CounterValue is one entry of a sorted counter snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// CountersSorted snapshots every registered counter as a name-sorted
// slice: the deterministic form for stats output, shutdown summaries,
// and golden tests (ranging over the map form is randomized).
func CountersSorted() []CounterValue {
	registryMu.Lock()
	out := make([]CounterValue, 0, len(registry))
	for name, c := range registry {
		out = append(out, CounterValue{Name: name, Value: c.Load()})
	}
	registryMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Histogram registry: long-running surfaces (cmd/syrupd) register their
// latency histograms here so the stats op can fold percentiles in next
// to the counters, the obs sampler can trace percentile series over sim
// time, and PromText can export them. Unlike counters, histograms are
// not thread-safe —
// registering one hands the stats reader a reference, so the owner must
// serialize its Record calls against stats snapshots (syrupd's server
// already holds its big lock across Handle).
var histograms = map[string]*Histogram{}

// RegisterHistogram registers h under name, replacing any previous
// registration (the last generation wins across warmup/measure resets).
func RegisterHistogram(name string, h *Histogram) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if h == nil {
		delete(histograms, name)
		return
	}
	histograms[name] = h
}

// Histograms snapshots the registered histogram set (the map is a copy;
// the histograms are shared references).
func Histograms() map[string]*Histogram {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make(map[string]*Histogram, len(histograms))
	for name, h := range histograms {
		out[name] = h
	}
	return out
}

// HistogramNames lists registered histogram names, sorted.
func HistogramNames() []string {
	registryMu.Lock()
	names := make([]string, 0, len(histograms))
	for name := range histograms {
		names = append(names, name)
	}
	registryMu.Unlock()
	sort.Strings(names)
	return names
}
