// Package obs is the telemetry plane: fixed-capacity time series sampled
// on the sim clock, Prometheus-style exposition, and SLO objects with
// multi-window burn-rate evaluation.
//
// The sampler rides the engine's passive sampling hook (sim.SetSampler)
// rather than scheduled events, so enabling telemetry consumes no event
// sequence numbers and no PRNG draws — simulations are bit-identical with
// sampling on or off (gated by make obs-diff), and the disabled cost is
// one nil check per event fire.
package obs

import (
	"slices"
	"sort"
	"strings"

	"syrup/internal/sim"
)

// Series is a fixed-capacity ring of (time, value) points. Once full, the
// oldest point is overwritten: the store holds a sliding window of the
// most recent capacity samples, which is all SLO windows and syrup-top
// sparklines need.
type Series struct {
	name  string
	t     []int64 // sim ns
	v     []float64
	start int // index of oldest point
	n     int // points held
}

func newSeries(name string, capacity int) *Series {
	return &Series{name: name, t: make([]int64, capacity), v: make([]float64, capacity)}
}

// Len reports how many points the series currently holds.
func (s *Series) Len() int { return s.n }

// Append records a point. Appends are amortized O(1) and allocation-free,
// so per-tick sampling stays off the allocator.
func (s *Series) Append(t sim.Time, v float64) {
	i := s.start + s.n
	if i >= len(s.t) {
		i -= len(s.t)
	}
	s.t[i], s.v[i] = int64(t), v
	if s.n < len(s.t) {
		s.n++
	} else {
		s.start++
		if s.start == len(s.t) {
			s.start = 0
		}
	}
}

// Snapshot copies the ring out in chronological order.
func (s *Series) Snapshot() SeriesJSON {
	out := SeriesJSON{Name: s.name, T: make([]int64, s.n), V: make([]float64, s.n)}
	for i := 0; i < s.n; i++ {
		j := s.start + i
		if j >= len(s.t) {
			j -= len(s.t)
		}
		out.T[i], out.V[i] = s.t[j], s.v[j]
	}
	return out
}

// SeriesJSON is the wire form of one series: parallel timestamp (sim ns)
// and value slices, chronological. It is what the syrupd timeseries op
// returns and what syrup-top consumes.
type SeriesJSON struct {
	Name string    `json:"name"`
	T    []int64   `json:"t_ns"`
	V    []float64 `json:"v"`
}

// LastBefore returns the latest value at or before t, or (0, false).
func (s SeriesJSON) LastBefore(t int64) (float64, bool) {
	i := sort.Search(len(s.T), func(i int) bool { return s.T[i] > t })
	if i == 0 {
		return 0, false
	}
	return s.V[i-1], true
}

// Store holds the named series of one host. It is not safe for concurrent
// use: samples happen inside the (single-threaded) engine, and snapshots
// are taken between runs or under the syrupd big lock.
type Store struct {
	capacity int
	byName   map[string]*Series
	order    []*Series // registration order, for cheap iteration
}

// seriesCapacity is the ring size, in points, of every series a sampler
// records: 4.1 ms of history at a 1 µs period, 4.1 s at the default 1 ms.
const seriesCapacity = 4096

// NewStore returns a store whose series each hold capacity points.
func NewStore(capacity int) *Store {
	return &Store{capacity: capacity, byName: make(map[string]*Series)}
}

// Series returns the named series, creating it on first use.
func (st *Store) Series(name string) *Series {
	if s := st.byName[name]; s != nil {
		return s
	}
	s := newSeries(name, st.capacity)
	st.byName[name] = s
	st.order = append(st.order, s)
	return s
}

// Get returns the named series or nil.
func (st *Store) Get(name string) *Series { return st.byName[name] }

// Snapshot copies every series out, sorted by name for deterministic
// output regardless of registration order.
func (st *Store) Snapshot() []SeriesJSON {
	out := make([]SeriesJSON, 0, len(st.order))
	for _, s := range st.order {
		out = append(out, s.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
	for _, name := range names {
		out = append(out, mergeByTime(name, byName[name]))
	}
	return out
}

// mergeByTime is a k-way merge over the inputs' timestamp slices, which
// snapshots deliver sorted: each round emits the smallest timestamp any
// input still holds and folds in, input by input, every point carrying it.
func mergeByTime(name string, in []SeriesJSON) SeriesJSON {
	longest := 0
	for i, s := range in {
		if !slices.IsSorted(s.T) {
			in[i] = sortedByTime(s)
		}
		if len(s.T) > longest {
			longest = len(s.T)
		}
	}
	pctl := percentileSeries(name)
	out := SeriesJSON{Name: name, T: make([]int64, 0, longest), V: make([]float64, 0, longest)}
	pos := make([]int, len(in))
	for {
		var t int64
		live := false
		for i, s := range in {
			if pos[i] < len(s.T) && (!live || s.T[pos[i]] < t) {
				t, live = s.T[pos[i]], true
			}
		}
		if !live {
			return out
		}
		var acc float64
		first := true
		for i, s := range in {
			for ; pos[i] < len(s.T) && s.T[pos[i]] == t; pos[i]++ {
				switch v := s.V[pos[i]]; {
				case first:
					acc, first = v, false
				case !pctl:
					acc += v
				case v > acc:
					acc = v
				}
			}
		}
		out.T = append(out.T, t)
		out.V = append(out.V, acc)
	}
}

// sortedByTime returns a copy of s in timestamp order, points sharing a
// timestamp keeping their relative order. Store snapshots are already
// sorted; a hand-edited or hostile recording fed to syrup-top may not be.
func sortedByTime(s SeriesJSON) SeriesJSON {
	idx := make([]int, len(s.T))
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
