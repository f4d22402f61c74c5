package faults_test

import (
	"math"
	"reflect"
	"testing"

	"syrup/internal/experiments"
	"syrup/internal/faults"
	"syrup/internal/sim"
)

// FuzzPlan feeds the chaos-plan parser arbitrary text, seeded with every
// plan the repo writes (the text plans of the CLIs, docs and tests, the
// struct plans of the tests rendered by String, the default chaos plan)
// and the two sub-nanosecond repros. A plan ParsePlan accepts must print
// as text that parses back to an identical plan, and compiling it and
// firing and stalling every site over a scripted clock must never panic,
// fire outside a spec's window or past its cap, or miscount. Plain
// `go test` replays the seeds; `make fuzz` runs it on.
func FuzzPlan(f *testing.F) {
	for _, text := range []string{
		experiments.DefaultChaosPlan().String(),
		"site=socket-select prob=0.3 from=100ms until=600ms; site=ghost-stall every=20 stall=80us\nsite=nic-ring prob=0.05 max=500 # tail comment",
		"site=nic-ring prob=1",
		"site=nic-ring prob=1e-300 every=1 max=18446744073709551615",
		"site=tail-call every=3 from=1.5us until=9223372036s",
		"site=ghost-stall every=1 stall=0.25ms from=0s",
		"site=skb-alloc prob=0.1 until=1ns; site=offload every=18446744073709551615",
		"site=helper-lookup every=1",
		"site=offload every=2; site=socket-select every=2; site=helper-lookup every=1; site=ghost-stall every=1",
		"site=socket-select prob=0.3; site=nic-ring prob=0.01",
		"site=nic-ring prob=0.01",
		"site=socket-select every=1 from=70ms until=120ms\nsite=skb-alloc prob=0.02\nsite=nic-ring prob=0.005\n",
		"site=socket-select every=1 from=10s",
		"site=nic-ring every=3",
		"site=skb-alloc every=1 from=10ms until=20ms max=3",
		"site=socket-select prob=0.25",
		"site=helper-lookup prob=0.5; site=helper-update prob=0.5",
		"site=ghost-stall every=2 stall=80us; site=ghost-commit every=1",
		"site=ghost-commit prob=0.05",
		"site=ghost-stall every=1 stall=80us",
		"site=ghost-commit every=1 max=1",
		"site=skb-alloc every=2",
		"site=socket-select every=2",
		"site=socket-select every=1",
		"site=socket-select every=1 max=10",
		"site=nic-ring every=1 until=0.4ns",
		"site=ghost-stall every=1 stall=0.4ns",
	} {
		f.Add(text, uint64(7))
	}
	f.Fuzz(func(t *testing.T, text string, seed uint64) {
		p, err := faults.ParsePlan(text)
		if err != nil {
			return
		}
		q, err := faults.ParsePlan(p.String())
		if err != nil {
			t.Fatalf("String() does not re-parse: %v\nplan: %q\nrendered: %q", err, text, p.String())
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("String() round trip changed the plan\nplan: %q\nrendered: %q\nwant %+v\ngot  %+v", text, p.String(), p.Specs, q.Specs)
		}

		// The clock visits 0, both edges of every window and the end of
		// time, in order; every site is fired and stalled at each instant.
		clock := []sim.Time{0, math.MaxInt64}
		for _, sp := range p.Specs {
			for _, at := range []sim.Time{sp.From, sp.Until} {
				if at > 0 {
					clock = append(clock, at-1, at)
				}
			}
		}
		var now sim.Time
		inj := p.Compile(seed, func() sim.Time { return now })
		specs := make(map[faults.Site]faults.Spec, len(p.Specs))
		for _, sp := range p.Specs {
			specs[sp.Site] = sp
		}
		sites := append([]faults.Site{"", "no-such-site"}, faults.Sites...)
		for _, round := range []int{0, 1} {
			for _, at := range clock {
				now = at
				if round == 1 {
					now = math.MaxInt64 - at
				}
				for _, site := range sites {
					sp, planned := specs[site]
					inside := planned && now >= sp.From && (sp.Until == 0 || now < sp.Until)
					before := inj.Injected(site)
					fired := inj.Fire(site)
					stall := inj.Stall(site)
					if (fired || stall != 0) && !inside {
						t.Fatalf("site %q fired at %d outside its window: %+v", site, now, sp)
					}
					if stall < 0 {
						t.Fatalf("site %q stalled %d", site, stall)
					}
					n := inj.Injected(site)
					if want := before + b2u(fired) + b2u(stall != 0); n != want {
						t.Fatalf("site %q: Injected %d after %d plus fire %v, stall %d", site, n, before, fired, stall)
					}
					if sp.Max > 0 && n > sp.Max {
						t.Fatalf("site %q injected %d past max=%d", site, n, sp.Max)
					}
				}
			}
		}
		var total uint64
		for _, site := range faults.Sites {
			total += inj.Injected(site)
		}
		if inj.Total() != total || len(inj.Planned()) != len(p.Specs) {
			t.Fatalf("Total %d, Σ Injected %d; %d planned of %d specs", inj.Total(), total, len(inj.Planned()), len(p.Specs))
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
