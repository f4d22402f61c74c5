package faults

import (
	"reflect"
	"strings"
	"testing"

	"syrup/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	text := "site=socket-select prob=0.3 from=100ms until=600ms; site=ghost-stall every=20 stall=80us\nsite=nic-ring prob=0.05 max=500 # tail comment"
	p, err := ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(p.Specs))
	}
	sp := p.Specs[0]
	if sp.Site != SiteSocketSelect || sp.Prob != 0.3 || sp.From != 100*sim.Millisecond || sp.Until != 600*sim.Millisecond {
		t.Fatalf("bad first spec: %+v", sp)
	}
	if p.Specs[1].Stall != 80*sim.Microsecond || p.Specs[1].Every != 20 {
		t.Fatalf("bad second spec: %+v", p.Specs[1])
	}
	if p.Specs[2].Max != 500 {
		t.Fatalf("bad third spec: %+v", p.Specs[2])
	}

	// Every accepted plan prints as text that parses back to itself.
	for _, text := range []string{
		text,
		"site=nic-ring prob=1",
		"site=nic-ring prob=1e-300 every=1 max=18446744073709551615",
		"site=tail-call every=3 from=1.5us until=9223372036s",
		"site=ghost-stall every=1 stall=0.25ms from=0s",
		"site=skb-alloc prob=0.1 until=1ns; site=offload every=18446744073709551615",
	} {
		p, err := ParsePlan(text)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", text, err)
			continue
		}
		p2, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("%q round trip: %v (%q)", text, err, p.String())
			continue
		}
		if !reflect.DeepEqual(p2, p) {
			t.Errorf("%q round trip mismatch: %+v vs %+v", text, p2.Specs, p.Specs)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []struct{ text, want string }{
		{"", "empty plan"},
		{"# only a comment", "empty plan"},
		{"prob=0.5", "missing site"},
		{"site=bogus prob=0.5", "unknown site"},
		{"site=nic-ring", "need prob= or every="},
		{"site=nic-ring prob=1.5", "outside [0, 1]"},
		{"site=nic-ring prob=0.1; site=nic-ring every=2", "duplicate spec"},
		{"site=nic-ring prob=0.1 from=5ms until=2ms", "until"},
		{"site=nic-ring prob=0.1 from=10", "suffix"},
		{"site=nic-ring frequency=2", "unknown key"},
		{"site nic-ring", "key=value"},
		// Non-finite and overflowing numbers, each naming its field: a NaN
		// probability never fires and prints as no trigger at all; a NaN,
		// infinite or > MaxInt64 ns duration converts to a negative time.
		{"site=nic-ring prob=NaN", "prob NaN outside [0, 1]"},
		{"site=nic-ring prob=+Inf", "prob +Inf outside [0, 1]"},
		{"site=nic-ring prob=-Inf", "prob -Inf outside [0, 1]"},
		{"site=nic-ring every=1 from=NaNs", "from=NaNs: bad duration"},
		{"site=nic-ring every=1 from=Infs", "from=Infs: bad duration"},
		{"site=ghost-stall every=1 stall=1e300s", "stall=1e300s: bad duration"},
		{"site=nic-ring every=1 until=9223372037s", "until=9223372037s: bad duration"},
	} {
		_, err := ParsePlan(bad.text)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("ParsePlan(%q) = %v, want error containing %q", bad.text, err, bad.want)
		}
	}
}

func TestEveryTrigger(t *testing.T) {
	var now sim.Time
	p := &Plan{Specs: []Spec{{Site: SiteNICRing, Every: 3}}}
	inj := p.Compile(1, func() sim.Time { return now })
	var fires []int
	for i := 1; i <= 10; i++ {
		if inj.Fire(SiteNICRing) {
			fires = append(fires, i)
		}
	}
	if len(fires) != 3 || fires[0] != 3 || fires[1] != 6 || fires[2] != 9 {
		t.Fatalf("every=3 fired at %v, want [3 6 9]", fires)
	}
	if inj.Injected(SiteNICRing) != 3 {
		t.Fatalf("Injected = %d, want 3", inj.Injected(SiteNICRing))
	}
}

func TestWindowAndMax(t *testing.T) {
	var now sim.Time
	p := &Plan{Specs: []Spec{{
		Site: SiteSKBAlloc, Every: 1,
		From: 10 * sim.Millisecond, Until: 20 * sim.Millisecond, Max: 3,
	}}}
	inj := p.Compile(1, func() sim.Time { return now })

	now = 5 * sim.Millisecond
	if inj.Fire(SiteSKBAlloc) {
		t.Fatal("fired before window")
	}
	now = 15 * sim.Millisecond
	for i := 0; i < 5; i++ {
		fired := inj.Fire(SiteSKBAlloc)
		if fired != (i < 3) {
			t.Fatalf("fire %d = %v inside window with max=3", i, fired)
		}
	}
	now = 25 * sim.Millisecond
	if inj.Fire(SiteSKBAlloc) {
		t.Fatal("fired after window")
	}
	if inj.Total() != 3 {
		t.Fatalf("Total = %d, want 3", inj.Total())
	}
}

func TestProbDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		var now sim.Time
		p := &Plan{Specs: []Spec{{Site: SiteSocketSelect, Prob: 0.25}}}
		inj := p.Compile(seed, func() sim.Time { return now })
		out := make([]bool, 400)
		for i := range out {
			out[i] = inj.Fire(SiteSocketSelect)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
	// The empirical rate should be in the right ballpark for prob=0.25.
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n < 60 || n > 140 {
		t.Fatalf("prob=0.25 fired %d/400 times", n)
	}
}

func TestSitesIndependent(t *testing.T) {
	var now sim.Time
	p := &Plan{Specs: []Spec{
		{Site: SiteHelperLookup, Prob: 0.5},
		{Site: SiteHelperUpdate, Prob: 0.5},
	}}
	// Interleaving draws on one site must not shift the other's stream.
	seqA := func(interleave bool) []bool {
		inj := p.Compile(3, func() sim.Time { return now })
		out := make([]bool, 100)
		for i := range out {
			if interleave {
				inj.Fire(SiteHelperUpdate)
			}
			out[i] = inj.Fire(SiteHelperLookup)
		}
		return out
	}
	plain, mixed := seqA(false), seqA(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("site streams are coupled (diverged at %d)", i)
		}
	}
}

func TestStall(t *testing.T) {
	var now sim.Time
	p := &Plan{Specs: []Spec{
		{Site: SiteGhostStall, Every: 2, Stall: 80 * sim.Microsecond},
		{Site: SiteGhostCommit, Every: 1},
	}}
	inj := p.Compile(1, func() sim.Time { return now })
	if d := inj.Stall(SiteGhostStall); d != 0 {
		t.Fatalf("first stall = %v, want 0 (every=2)", d)
	}
	if d := inj.Stall(SiteGhostStall); d != 80*sim.Microsecond {
		t.Fatalf("second stall = %v, want 80us", d)
	}
	// No explicit stall duration: DefaultStall.
	if d := inj.Stall(SiteGhostCommit); d != DefaultStall {
		t.Fatalf("default stall = %v, want %v", d, DefaultStall)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var inj *Injector
	if inj.Fire(SiteNICRing) || inj.Stall(SiteGhostStall) != 0 ||
		inj.Injected(SiteNICRing) != 0 || inj.Total() != 0 {
		t.Fatal("nil injector fired")
	}
	if inj.FireFn(SiteNICRing) != nil {
		t.Fatal("nil injector returned a FireFn")
	}
	if inj.Planned() != nil {
		t.Fatal("nil injector reported plan state")
	}
	var p *Plan
	if p.Compile(1, nil) != nil {
		t.Fatal("nil plan compiled to a non-nil injector")
	}
	// A planned injector still returns nil FireFn for unplanned sites.
	real := (&Plan{Specs: []Spec{{Site: SiteNICRing, Every: 1}}}).Compile(1, func() sim.Time { return 0 })
	if real.FireFn(SiteOffload) != nil {
		t.Fatal("unplanned site returned a FireFn")
	}
	if real.FireFn(SiteNICRing) == nil || !real.FireFn(SiteNICRing)() {
		t.Fatal("planned every=1 site did not fire via FireFn")
	}
}
