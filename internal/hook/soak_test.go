package hook

import "testing"

// TestReplaceSwapChurnSoak is the controller-churn soak: the adapt
// controller's reaction primitive is hook.Replace, so hundreds of swaps
// landing mid-burst must never lose, duplicate, or misroute a packet.
// Two program generations steer into disjoint index ranges (A: hash%4,
// B: hash%4+4), so every verdict names the generation that produced it;
// traffic alternates between the scalar Run path and the vectorized
// RunBatch path across each swap. Asserts: every input yields exactly
// one verdict, every verdict matches the generation installed when its
// chunk ran (no packet ever sees an empty slot or a stale program
// outside the swap's atomic boundary), and the link's cumulative stats
// survive every Replace without resetting.
func TestReplaceSwapChurnSoak(t *testing.T) {
	progA := mustProg(t, "gen_a", "r0 = *(u32 *)(r1 + 16)\nr0 %= 4\nexit\n")
	progB := mustProg(t, "gen_b", "r0 = *(u32 *)(r1 + 16)\nr0 %= 4\nr0 += 4\nexit\n")

	pt := NewPoint(newHost(), "t_swap_soak", "")
	link, err := pt.Attach(progA)
	if err != nil {
		t.Fatal(err)
	}

	const (
		swaps    = 300
		perChunk = 8
	)
	var (
		total    uint64
		prevRuns uint64
		next     int // rolling input id, so every packet is distinct
	)
	check := func(out []Verdict, base uint32, ins []Input) {
		t.Helper()
		if len(out) != len(ins) {
			t.Fatalf("%d verdicts for %d inputs — dropped or duplicated packets", len(out), len(ins))
		}
		for i, v := range out {
			want := Verdict{Action: Steer, Index: ins[i].Hash%4 + base}
			if v != want {
				t.Fatalf("packet %d ran on the wrong generation: got %+v, want %+v", ins[i].Req, v, want)
			}
		}
	}
	chunk := func(base uint32, batched bool) {
		t.Helper()
		ins := make([]Input, perChunk)
		for i := range ins {
			ins[i] = Input{Hash: uint32(next) * 2654435761, Port: 9000, Req: uint64(next)}
			next++
		}
		if batched {
			check(pt.RunBatch(ins), base, ins)
		} else {
			out := make([]Verdict, 0, len(ins))
			for _, in := range ins {
				out = append(out, pt.Run(in))
			}
			check(out, base, ins)
		}
		total += perChunk
		// Continuity: cumulative link accounting grows monotonically
		// through every swap — Replace must never reset the deployment's
		// stats (they describe the link, not one program generation).
		if runs := link.Stats().Runs; runs != prevRuns+perChunk {
			t.Fatalf("link runs %d after chunk, want %d — stats reset across Replace", runs, prevRuns+perChunk)
		}
		prevRuns += perChunk
	}

	chunk(0, false) // generation A, before any churn
	for s := 0; s < swaps; s++ {
		var base uint32
		if s%2 == 0 {
			if err := link.Replace(progB); err != nil {
				t.Fatalf("swap %d: %v", s, err)
			}
			base = 4
		} else {
			if err := link.Replace(progA); err != nil {
				t.Fatalf("swap %d: %v", s, err)
			}
		}
		chunk(base, s%2 == 1) // alternate scalar and batch paths
	}

	st := link.Stats()
	if st.Runs != total || st.Steers != total {
		t.Fatalf("link stats %+v, want %d runs, all steers", st, total)
	}
	if st.Drops != 0 || st.Passes != 0 || st.Faults != 0 {
		t.Fatalf("stray verdicts under churn: %+v", st)
	}
	if ps := pt.Stats(); ps != st {
		t.Fatalf("point stats %+v diverged from link stats %+v", ps, st)
	}
}
