// Package faults is the deterministic fault-injection layer: a seeded
// chaos plan compiled into per-site triggers the layers consult on their
// existing failure paths (ring overflow, offload fault, SKB allocation,
// helper errors, ghOSt agent stalls and dropped commits).
//
// Determinism is the whole design. An Injector draws from per-site
// xorshift64 generators seeded from the plan seed — never from the
// engine's PRNG — and it never schedules events, so a run with no plan
// (or a nil Injector) is bit-identical to a run before this package
// existed, the same discipline internal/trace follows. With a plan
// active, the same seed always injects the same faults at the same
// simulated instants.
//
// Like the layers that consult it, an Injector is driven from the
// single-threaded event loop and is not safe for concurrent use; read
// the injected counts after the run completes.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"syrup/internal/sim"
)

// Site names one injection point in the stack. Every site maps to a
// pre-existing failure path: injection only makes a failure the layer
// already tolerates happen on demand.
type Site string

// Injection sites.
const (
	// SiteNICRing overflows an RX descriptor ring: the packet is dropped
	// exactly as if the ring were full (nic.Stats.DroppedRing).
	SiteNICRing Site = "nic-ring"
	// SiteOffload faults the NIC offload engine's program without running
	// it; the NIC falls back to RSS (nic.Stats.OffloadFaults).
	SiteOffload Site = "offload"
	// SiteSKBAlloc fails SKB allocation in the softirq: the packet is
	// dropped at backlog admission (netstack.Stats.BacklogDrops).
	SiteSKBAlloc Site = "skb-alloc"
	// SiteHelperLookup forces bpf_map_lookup_elem to miss (R0 = NULL).
	SiteHelperLookup Site = "helper-lookup"
	// SiteHelperUpdate forces bpf_map_update_elem to fail (R0 = -1),
	// the map-full error.
	SiteHelperUpdate Site = "helper-update"
	// SiteTailCall forces bpf_tail_call to hit the MaxTailCalls budget:
	// a runtime fault, the program chain falls open.
	SiteTailCall Site = "tail-call"
	// SiteSocketSelect faults the socket-select policy without running
	// it; the group falls back to hash selection.
	SiteSocketSelect Site = "socket-select"
	// SiteGhostStall stalls the ghOSt agent's message batch by the
	// spec's stall duration (default DefaultStall).
	SiteGhostStall Site = "ghost-stall"
	// SiteGhostCommit drops a ghOSt commit transaction; the placement is
	// lost and the thread goes back to runnable (ghost.Agent.CommitDrops).
	SiteGhostCommit Site = "ghost-commit"
)

// Sites lists every known site in stack order (NIC → softirq → VM →
// socket → scheduler).
var Sites = []Site{
	SiteNICRing, SiteOffload, SiteSKBAlloc,
	SiteHelperLookup, SiteHelperUpdate, SiteTailCall,
	SiteSocketSelect, SiteGhostStall, SiteGhostCommit,
}

func knownSite(s Site) bool {
	for _, k := range Sites {
		if k == s {
			return true
		}
	}
	return false
}

// DefaultStall is the ghost-stall duration when a spec sets none: long
// enough to visibly delay a message batch, short enough not to wedge
// the enclave.
const DefaultStall = 50 * sim.Microsecond

// Spec is one per-site trigger. A spec fires on an eligible event (one
// inside the [From, Until) window, below the Max cap) when either the
// schedule trigger (every Every-th eligible event) or the probability
// trigger (an independent per-event draw against Prob) hits. At least
// one of Every/Prob must be set.
type Spec struct {
	Site  Site
	Prob  float64  // per-event fire probability in [0, 1]
	Every uint64   // fire every Nth eligible event (1 = every event)
	From  sim.Time // window start (0 = from the beginning)
	Until sim.Time // window end, exclusive (0 = forever)
	Max   uint64   // total fire cap (0 = unlimited)
	Stall sim.Time // stall duration for stall sites (0 = DefaultStall)
}

// Plan is a parsed chaos plan: one Spec per site.
type Plan struct {
	Specs []Spec
}

// ParsePlan parses the textual plan format: specs separated by ';' or
// newlines, each a list of space-separated key=value fields. '#' starts
// a comment running to end of line.
//
//	site=socket-select prob=0.3 from=100ms until=600ms
//	site=ghost-stall every=20 stall=80us; site=nic-ring prob=0.05 max=500
//
// Keys: site (required), prob, every, from, until, max, stall.
// Durations take an ns/us/ms/s suffix.
func ParsePlan(text string) (*Plan, error) {
	var p Plan
	seen := make(map[Site]bool)
	for _, line := range strings.Split(text, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, entry := range strings.Split(line, ";") {
			fields := strings.Fields(entry)
			if len(fields) == 0 {
				continue
			}
			var sp Spec
			for _, f := range fields {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fmt.Errorf("faults: %q: want key=value", f)
				}
				var err error
				switch k {
				case "site":
					sp.Site = Site(v)
				case "prob":
					sp.Prob, err = strconv.ParseFloat(v, 64)
				case "every":
					sp.Every, err = strconv.ParseUint(v, 10, 64)
				case "max":
					sp.Max, err = strconv.ParseUint(v, 10, 64)
				case "from":
					sp.From, err = parseDuration(v)
				case "until":
					sp.Until, err = parseDuration(v)
				case "stall":
					sp.Stall, err = parseDuration(v)
				default:
					return nil, fmt.Errorf("faults: unknown key %q", k)
				}
				if err != nil {
					return nil, fmt.Errorf("faults: %s=%s: %v", k, v, err)
				}
			}
			if err := sp.validate(); err != nil {
				return nil, err
			}
			if seen[sp.Site] {
				return nil, fmt.Errorf("faults: duplicate spec for site %q", sp.Site)
			}
			seen[sp.Site] = true
			p.Specs = append(p.Specs, sp)
		}
	}
	if len(p.Specs) == 0 {
		return nil, fmt.Errorf("faults: empty plan")
	}
	return &p, nil
}

func (sp Spec) validate() error {
	if sp.Site == "" {
		return fmt.Errorf("faults: spec missing site=")
	}
	if !knownSite(sp.Site) {
		return fmt.Errorf("faults: unknown site %q (want one of %s)", sp.Site, siteList())
	}
	if !(sp.Prob >= 0 && sp.Prob <= 1) { // NaN fails every comparison
		return fmt.Errorf("faults: site %s: prob %g outside [0, 1]", sp.Site, sp.Prob)
	}
	if sp.Prob == 0 && sp.Every == 0 {
		return fmt.Errorf("faults: site %s: need prob= or every=", sp.Site)
	}
	if sp.Until != 0 && sp.Until <= sp.From {
		return fmt.Errorf("faults: site %s: until %v <= from %v", sp.Site, sp.Until, sp.From)
	}
	return nil
}

func siteList() string {
	names := make([]string, len(Sites))
	for i, s := range Sites {
		names[i] = string(s)
	}
	return strings.Join(names, "|")
}

// String renders the plan in the format ParsePlan accepts (zero fields
// omitted), so plans round-trip.
func (p *Plan) String() string {
	var b strings.Builder
	for i, sp := range p.Specs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "site=%s", sp.Site)
		if sp.Prob > 0 {
			fmt.Fprintf(&b, " prob=%g", sp.Prob)
		}
		if sp.Every > 0 {
			fmt.Fprintf(&b, " every=%d", sp.Every)
		}
		if sp.From > 0 {
			fmt.Fprintf(&b, " from=%s", formatDuration(sp.From))
		}
		if sp.Until > 0 {
			fmt.Fprintf(&b, " until=%s", formatDuration(sp.Until))
		}
		if sp.Max > 0 {
			fmt.Fprintf(&b, " max=%d", sp.Max)
		}
		if sp.Stall > 0 {
			fmt.Fprintf(&b, " stall=%s", formatDuration(sp.Stall))
		}
	}
	return b.String()
}

func parseDuration(s string) (sim.Time, error) {
	unit := sim.Nanosecond
	num := s
	switch {
	case strings.HasSuffix(s, "ns"):
		num = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, num = sim.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, num = sim.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, num = sim.Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("duration %q needs an ns/us/ms/s suffix", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	// A sim.Time is int64 nanoseconds: NaN, ±Inf and anything at or past
	// 2^63 ns convert to a negative time.
	ns := f * float64(unit)
	if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("bad duration %q: want a finite value in [0, %dns]", s, int64(math.MaxInt64))
	}
	return sim.Time(ns), nil
}

func formatDuration(t sim.Time) string {
	switch {
	case t%sim.Second == 0:
		return fmt.Sprintf("%ds", t/sim.Second)
	case t%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", t/sim.Millisecond)
	case t%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", t/sim.Microsecond)
	}
	return fmt.Sprintf("%dns", t)
}

// Compile binds the plan to a clock and a seed, producing the Injector
// the layers consult. A nil or empty plan compiles to a nil Injector,
// which every method treats as "never fire" — wiring stays unconditional.
func (p *Plan) Compile(seed uint64, now func() sim.Time) *Injector {
	if p == nil || len(p.Specs) == 0 {
		return nil
	}
	inj := &Injector{now: now, sites: make(map[Site]*siteState, len(p.Specs))}
	for i, sp := range p.Specs {
		st := &siteState{spec: sp}
		// Seed each site's generator independently of every other site
		// and of the engine PRNG: two splitmix64 rounds over the plan
		// seed, the site name hash, and the spec index.
		st.rng = splitmix64(splitmix64(seed^hashSite(sp.Site)) + uint64(i) + 1)
		if st.rng == 0 {
			st.rng = 0x9e3779b97f4a7c15
		}
		inj.sites[sp.Site] = st
		inj.order = append(inj.order, sp.Site)
	}
	return inj
}

type siteState struct {
	spec  Spec
	rng   uint64 // xorshift64 state, private to this site
	seen  uint64 // eligible events observed
	fired uint64 // faults injected
}

// Injector is a compiled plan. All methods are nil-safe: a nil Injector
// never fires, so layers wire it unconditionally.
type Injector struct {
	now   func() sim.Time
	sites map[Site]*siteState
	order []Site // plan order, for reporting
}

// Fire reports whether the site's fault should trigger for the current
// event, and counts it if so.
func (i *Injector) Fire(site Site) bool {
	if i == nil {
		return false
	}
	st := i.sites[site]
	if st == nil {
		return false
	}
	return st.fire(i.now())
}

// FireFn returns a closure equivalent to Fire(site), or nil when the
// site is not in the plan — callers store it in optional hook fields so
// the disabled path stays a single nil check.
func (i *Injector) FireFn(site Site) func() bool {
	if i == nil || i.sites[site] == nil {
		return nil
	}
	st := i.sites[site]
	return func() bool { return st.fire(i.now()) }
}

// Stall fires the site and returns the injected stall duration, or 0
// when the site did not fire.
func (i *Injector) Stall(site Site) sim.Time {
	if i == nil {
		return 0
	}
	st := i.sites[site]
	if st == nil || !st.fire(i.now()) {
		return 0
	}
	if st.spec.Stall > 0 {
		return st.spec.Stall
	}
	return DefaultStall
}

// Injected reports how many faults the site has fired.
func (i *Injector) Injected(site Site) uint64 {
	if i == nil || i.sites[site] == nil {
		return 0
	}
	return i.sites[site].fired
}

// Total reports faults fired across all sites.
func (i *Injector) Total() uint64 {
	if i == nil {
		return 0
	}
	var n uint64
	for _, st := range i.sites {
		n += st.fired
	}
	return n
}

// Planned returns the planned sites in plan order.
func (i *Injector) Planned() []Site {
	if i == nil {
		return nil
	}
	return append([]Site(nil), i.order...)
}

func (st *siteState) fire(now sim.Time) bool {
	sp := &st.spec
	if now < sp.From || (sp.Until > 0 && now >= sp.Until) {
		return false
	}
	if sp.Max > 0 && st.fired >= sp.Max {
		return false
	}
	st.seen++
	hit := sp.Every > 0 && st.seen%sp.Every == 0
	if !hit && sp.Prob > 0 {
		// 53-bit uniform draw from the site-private generator.
		hit = float64(st.next()>>11)/(1<<53) < sp.Prob
	}
	if hit {
		st.fired++
	}
	return hit
}

// next advances the site's xorshift64 generator.
func (st *siteState) next() uint64 {
	x := st.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	st.rng = x
	return x
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashSite(s Site) uint64 {
	// FNV-1a.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
