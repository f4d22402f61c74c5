package workload

import (
	"math/rand/v2"
	"slices"
	"testing"

	"syrup/internal/sim"
)

// drawHostFlowsOracle is the host-local pool draw as it was written before
// DrawFlows: a map keyed by the padded struct, probed once per candidate.
func drawHostFlowsOracle(rng *rand.Rand, n int) []Flow {
	seen := make(map[Flow]bool, n)
	var flows []Flow
	for len(flows) < n {
		f := Flow{
			IP:   0x0a000000 + rng.Uint32N(1<<16),
			Port: uint16(1024 + rng.IntN(60000)),
		}
		if seen[f] {
			continue
		}
		seen[f] = true
		flows = append(flows, f)
	}
	return flows
}

// TestHostPoolMatchesMapOracle: the generator's host-local pool is exactly
// what the map loop drew — the same flows in the same order — and leaves
// the host PRNG where the loop left it, so everything drawn after it (every
// arrival, key and service time) is unchanged too.
func TestHostPoolMatchesMapOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		for _, n := range []int{1, 50, 1024, 1 << 16, 1 << 20} {
			eng := sim.New(seed)
			g := New(eng, nil, Config{Rate: 1, Flows: n})
			ref := sim.New(seed)
			want := drawHostFlowsOracle(ref.Rand(), n)
			if !slices.Equal(g.flows, want) {
				t.Fatalf("seed %d n %d: pool differs from the map oracle", seed, n)
			}
			if got, want := eng.Rand().Uint64(), ref.Rand().Uint64(); got != want {
				t.Fatalf("seed %d n %d: host PRNG left at a different place (%#x, want %#x)", seed, n, got, want)
			}
		}
	}
}

func TestDrawFlowsEdges(t *testing.T) {
	stream := []Flow{{IP: 1, Port: 9}, {IP: 1, Port: 9}, {IP: 2}, {IP: 1, Port: 9}, {}, {IP: 2}}
	calls := 0
	next := func() Flow { calls++; return stream[calls-1] }
	if got := DrawFlows(0, next); got != nil || calls != 0 {
		t.Fatalf("n=0: %v after %d draws, want nil after none", got, calls)
	}
	// Repeats are skipped, and the zero flow is a flow like any other: the
	// table's empty slots must not hide it.
	if got := DrawFlows(3, next); !slices.Equal(got, []Flow{{IP: 1, Port: 9}, {IP: 2}, {}}) || calls != 5 {
		t.Fatalf("repeating stream: %v after %d draws, want 3 flows after 5", got, calls)
	}
}

// TestNoArrivalsWithoutRateOrFlows: a generator whose effective rate is not
// positive, whose gap overflows sim.Time, or whose cluster share is empty
// arms no arrival. Before, the gap converted to a negative Time and clamped
// to 1 ns, so each of these sent one request per simulated nanosecond
// (10 000 in this window); an empty share also invented 1024 host-local
// flows from the host PRNG.
func TestNoArrivalsWithoutRateOrFlows(t *testing.T) {
	win := Config{DstPort: 9000, Warmup: 5 * sim.Microsecond, Measure: 5 * sim.Microsecond, Drain: sim.Microsecond}
	for _, c := range []struct {
		name string
		cfg  func(Config) Config
	}{
		{"rate 0", func(c Config) Config { return c }},
		{"rate 0, RateFn 0", func(c Config) Config {
			c.RateFn = func(sim.Time) float64 { return 0 }
			return c
		}},
		{"rate -1", func(c Config) Config { c.Rate = -1; return c }},
		{"gap past the end of time", func(c Config) Config { c.Rate = 1e-12; return c }},
		{"empty share", func(c Config) Config { c.Rate, c.FlowSet = 1e6, []Flow{}; return c }},
	} {
		eng, g := directHost(c.cfg(win), func(uint64) bool { return true })
		if c.name == "empty share" {
			if len(g.flows) != 0 {
				t.Fatalf("%s: generator holds %d flows, want none", c.name, len(g.flows))
			}
			if got, want := eng.Rand().Uint64(), sim.New(3).Rand().Uint64(); got != want {
				t.Fatalf("%s: the host PRNG was drawn from", c.name)
			}
		}
		res := g.RunToCompletion()
		if g.issued != 0 || res.All.Offered != 0 || eng.Fired() != 0 {
			t.Fatalf("%s: issued %d requests (%d measured), fired %d events; want none", c.name, g.issued, res.All.Offered, eng.Fired())
		}
	}
}
