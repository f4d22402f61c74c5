// Package obs is the telemetry plane: fixed-capacity time series sampled
// on the sim clock and SLO objects with multi-window burn-rate evaluation.
//
// The sampler rides the engine's passive sampling hook (sim.SetSampler)
// rather than scheduled events, so enabling telemetry consumes no event
// sequence numbers and no PRNG draws — simulations are bit-identical with
// sampling on or off (gated by TestObsDifferential*), and the disabled cost is
// one nil check per event fire.
package obs

import (
	"slices"
	"sort"
	"strings"

	"syrup/internal/sim"
)

// Series is one metric's values over its store's clock: a fixed-capacity
// ring of values, slot j holding the value at tick Store.clock[j]. It holds
// every tick since it was registered, up to the ring's capacity — a sliding
// window of the most recent samples, which is all SLO windows and syrup-top
// sparklines need. Only the sampler writes it, once per tick.
type Series struct {
	name string
	st   *Store
	v    []float64
	born int // st.ticks when registered: the series holds every tick after it
}

// Len reports how many points the series currently holds.
func (s *Series) Len() int { return min(s.st.ticks-s.born, len(s.v)) }

// SeriesJSON is the wire form of one series: parallel timestamp (sim ns)
// and value slices, chronological. It is what the syrupd snapshot op
// carries and what syrup-top consumes. The T slices of one Store.Snapshot
// are suffixes of one shared array: treat T as read-only.
type SeriesJSON struct {
	Name string    `json:"name"`
	T    []int64   `json:"t_ns"`
	V    []float64 `json:"v"`
}

// Len reports how many complete points the snapshot holds: the paired
// prefix of T and V. Every reader stays inside it, so a torn or
// hand-truncated recording reads as its paired points rather than
// indexing past the shorter array.
func (s SeriesJSON) Len() int { return min(len(s.T), len(s.V)) }

// LastPoint returns the last complete point of a snapshot series, or no
// point at all when the series holds none.
func LastPoint(s SeriesJSON) (t int64, v float64, ok bool) {
	n := s.Len()
	if n == 0 {
		return 0, 0, false
	}
	return s.T[n-1], s.V[n-1], true
}

// LastBefore returns the latest value at or before t, or (0, false).
func (s SeriesJSON) LastBefore(t int64) (float64, bool) {
	i := sort.Search(s.Len(), func(i int) bool { return s.T[i] > t })
	if i == 0 {
		return 0, false
	}
	return s.V[i-1], true
}

// Store holds the named series of one host over one clock: a ring of the
// sampler's tick times that every series' value ring is aligned with, so
// a tick's time is kept once however many series record it. It is not
// safe for concurrent use: samples happen inside the (single-threaded)
// engine, and snapshots are taken between runs or under the syrupd big
// lock.
type Store struct {
	clock  []int64 // tick times, sim ns
	head   int     // slot of the newest tick
	ticks  int     // ticks recorded since the store was built
	byName map[string]*Series
	order  []*Series // registration order, for cheap iteration
}

// seriesCapacity is the ring size, in ticks, of every store a sampler
// records into: 4.1 ms of history at a 1 µs period, 4.1 s at the default
// 1 ms.
const seriesCapacity = 4096

// newStore returns a store whose clock and series each hold capacity
// ticks.
func newStore(capacity int) *Store {
	return &Store{clock: make([]int64, capacity), head: capacity - 1, byName: make(map[string]*Series)}
}

// tick advances the clock to at and returns the slot every series
// records this tick's value in.
func (st *Store) tick(at sim.Time) int {
	st.head++
	if st.head == len(st.clock) {
		st.head = 0
	}
	st.clock[st.head] = int64(at)
	st.ticks++
	return st.head
}

// slot returns the ring slot of the tick back ticks before the newest.
func (st *Store) slot(back int) int {
	j := st.head - back
	if j < 0 {
		j += len(st.clock)
	}
	return j
}

// series returns the named series, registering it on first use.
func (st *Store) series(name string) *Series {
	if s := st.byName[name]; s != nil {
		return s
	}
	s := &Series{name: name, st: st, v: make([]float64, len(st.clock)), born: st.ticks}
	st.byName[name] = s
	st.order = append(st.order, s)
	return s
}

// Get returns the named series or nil.
func (st *Store) Get(name string) *Series { return st.byName[name] }

// Snapshot copies every series out in chronological order, sorted by name
// for deterministic output regardless of registration order. The clock is
// copied once: every series' T is the suffix of that one copy its points
// span, and the values share one backing array too.
func (st *Store) Snapshot() []SeriesJSON {
	clock := make([]int64, min(st.ticks, len(st.clock)))
	oldestFirst(st, clock, st.clock)
	total := 0
	for _, s := range st.order {
		total += s.Len()
	}
	vals := make([]float64, total)
	out := make([]SeriesJSON, 0, len(st.order))
	for _, s := range st.order {
		n := s.Len()
		v := vals[:n:n]
		vals = vals[n:]
		oldestFirst(st, v, s.v)
		out = append(out, SeriesJSON{Name: s.name, T: clock[len(clock)-n:], V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// oldestFirst copies the newest len(dst) slots of ring, a ring laid out
// on st's clock, into dst in chronological order.
func oldestFirst[E int64 | float64](st *Store, dst, ring []E) {
	from := st.head + 1 - len(dst)
	if from < 0 {
		k := copy(dst, ring[from+len(ring):])
		copy(dst[k:], ring[:st.head+1])
		return
	}
	copy(dst, ring[from:st.head+1])
}

// percentileSeries reports whether a merged fleet view of name should
// take the max across hosts instead of the sum: percentiles are not
// additive, and the max is the conservative fleet number.
func percentileSeries(name string) bool {
	for _, suf := range []string{"_p50_us", "_p90_us", "_p99_us", "_p999_us", "_max_us", "_mean_us"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// MergeSeries merges per-host snapshots into one fleet-wide set: series
// sharing a name are combined pointwise by timestamp — summed for
// additive series (rates, depths, counts), max for percentile series —
// in host order, so the floating-point sums are reproducible. Hosts share
// the sampler period, so timestamps normally align exactly; a timestamp
// only some hosts have merges the hosts that have it.
//
// A host records every series on one clock, so consecutive names usually
// merge inputs with the same timestamps: their union is computed once and
// shared, read-only, as the T of every merged series it serves.
func MergeSeries(hosts ...[]SeriesJSON) []SeriesJSON {
	byName := map[string][]SeriesJSON{}
	var names []string
	for _, snap := range hosts {
		for _, s := range snap {
			if _, ok := byName[s.Name]; !ok {
				names = append(names, s.Name)
			}
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	sort.Strings(names)
	out := make([]SeriesJSON, 0, len(names))
	var clock []int64 // the union of clockOf's timestamps
	var clockOf []SeriesJSON
	for _, name := range names {
		in := byName[name]
		for i, s := range in {
			n := s.Len()
			s.T, s.V = s.T[:n], s.V[:n]
			if !slices.IsSorted(s.T) {
				s = sortedByTime(s)
			}
			in[i] = s
		}
		if !sameTimes(in, clockOf) {
			clock, clockOf = unionOfTimes(in), in
		}
		out = append(out, foldOnto(name, in, clock))
	}
	return out
}

// sameTimes reports whether a and b carry the same timestamps, input by
// input; series of one snapshot that share their clock's array compare
// without a scan.
func sameTimes(a, b []SeriesJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].T, b[i].T
		if len(x) != len(y) || len(x) > 0 && &x[0] != &y[0] && !slices.Equal(x, y) {
			return false
		}
	}
	return true
}

// unionOfTimes returns the distinct timestamps of the sorted inputs in
// order. A k-way walk counts them first, so the second walk fills a slice
// allocated once at its final size.
func unionOfTimes(in []SeriesJSON) []int64 {
	pos := make([]int, len(in))
	u := make([]int64, walkTimes(in, pos, nil))
	walkTimes(in, pos, u)
	return u
}

// walkTimes steps through the union of the inputs' timestamps, pos
// holding each input's cursor, writing the k-th into u while u has room,
// and returns how many there are. Each step moves every cursor past the
// current timestamp and finds the next one on the way.
func walkTimes(in []SeriesJSON, pos []int, u []int64) int {
	clear(pos)
	t, ok := int64(0), false
	for _, s := range in {
		if len(s.T) > 0 && (!ok || s.T[0] < t) {
			t, ok = s.T[0], true
		}
	}
	n := 0
	for ; ok; n++ {
		if n < len(u) {
			u[n] = t
		}
		var next int64
		ok = false
		for i := range in {
			T, p := in[i].T, pos[i]
			for p < len(T) && T[p] == t {
				p++
			}
			pos[i] = p
			if p < len(T) && (!ok || T[p] < next) {
				next, ok = T[p], true
			}
		}
		t = next
	}
	return n
}

// foldOnto merges the inputs' values onto clock, the union of their
// timestamps: at each timestamp it folds in, input by input, every point
// carrying it.
func foldOnto(name string, in []SeriesJSON, clock []int64) SeriesJSON {
	pctl := percentileSeries(name)
	out := SeriesJSON{Name: name, T: clock, V: make([]float64, len(clock))}
	pos := make([]int, len(in))
	for k, t := range clock {
		var acc float64
		first := true
		for i := range in {
			s, p := &in[i], pos[i]
			for ; p < len(s.T) && s.T[p] == t; p++ {
				switch v := s.V[p]; {
				case first:
					acc, first = v, false
				case !pctl:
					acc += v
				case v > acc:
					acc = v
				}
			}
			pos[i] = p
		}
		out.V[k] = acc
	}
	return out
}

// sortedByTime returns a copy of s's paired points in timestamp order,
// points sharing a timestamp keeping their relative order. Store snapshots
// are already sorted; a hand-edited or hostile recording fed to syrup-top
// may not be.
func sortedByTime(s SeriesJSON) SeriesJSON {
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.T[idx[a]] < s.T[idx[b]] })
	out := SeriesJSON{Name: s.Name, T: make([]int64, len(idx)), V: make([]float64, len(idx))}
	for i, j := range idx {
		out.T[i], out.V[i] = s.T[j], s.V[j]
	}
	return out
}
