package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// echoServer completes every request after a fixed service delay with
// unbounded capacity (no queueing), for testing the generator itself.
type echoServer struct {
	eng     *sim.Engine
	g       *Generator
	service sim.Time
	seen    int
}

func newEchoHost(t *testing.T, cfg Config, service sim.Time) (*sim.Engine, *Generator, *echoServer) {
	t.Helper()
	eng := sim.New(7)
	srv := &echoServer{eng: eng, service: service}
	var dev *nic.NIC
	dev = nic.New(eng, nic.Config{Queues: 1, RingSize: 1 << 20}, func(q int, pkt *nic.Packet) {
		srv.seen++
		_, _, _, reqID, ok := policy.DecodeHeader(pkt.Payload)
		if !ok {
			t.Fatal("generator produced malformed header")
		}
		dev.Consumed(q)
		pkt.Free()
		eng.CallAfter(service, func(any, uint64) { srv.g.Complete(reqID, eng.Now()) }, nil, 0)
	})
	g := New(eng, dev, cfg)
	srv.g = g
	return eng, g, srv
}

func TestGeneratorRateAndLatency(t *testing.T) {
	cfg := Config{
		Rate: 100_000, Flows: 50, DstPort: 9000,
		Warmup: 50 * sim.Millisecond, Measure: 200 * sim.Millisecond, Drain: 50 * sim.Millisecond,
	}
	_, g, _ := newEchoHost(t, cfg, 10*sim.Microsecond)
	res := g.RunToCompletion()
	st := res.All
	// Offered ≈ rate × measure = 20000 ± 5%.
	if st.Offered < 19000 || st.Offered > 21000 {
		t.Fatalf("offered = %d, want ≈20000", st.Offered)
	}
	if st.TotalDrops() != 0 {
		t.Fatalf("drops = %d", st.TotalDrops())
	}
	if st.Completed != st.Offered {
		t.Fatalf("completed %d of %d", st.Completed, st.Offered)
	}
	// Latency = wire + service + wire exactly (no queueing), within the
	// histogram's 5%.
	want := int64(2*wire + 10*sim.Microsecond)
	if p50 := st.Latency.Percentile(50); p50 < want*95/100 || p50 > want*105/100 {
		t.Fatalf("p50 latency = %dns, want ≈%d", p50, want)
	}
	if got := st.ThroughputRPS(); math.Abs(got-100_000) > 6_000 {
		t.Fatalf("throughput = %.0f", got)
	}
}

func TestGeneratorClassMix(t *testing.T) {
	cfg := Config{
		Rate: 50_000, DstPort: 9000,
		Classes: []Class{
			{Name: "GET", Weight: 0.995, Type: policy.ReqGET},
			{Name: "SCAN", Weight: 0.005, Type: policy.ReqSCAN, UserID: 3},
		},
		Warmup: 20 * sim.Millisecond, Measure: 400 * sim.Millisecond, Drain: 20 * sim.Millisecond,
	}
	_, g, _ := newEchoHost(t, cfg, sim.Microsecond)
	res := g.RunToCompletion()
	gets := res.PerClass["GET"].Offered
	scans := res.PerClass["SCAN"].Offered
	frac := float64(scans) / float64(gets+scans)
	if frac < 0.003 || frac > 0.008 {
		t.Fatalf("scan fraction = %.4f, want ≈0.005", frac)
	}
}

func TestGeneratorCountsUnansweredAsDrops(t *testing.T) {
	eng := sim.New(1)
	// A NIC that answers only even request ids.
	var g *Generator
	dev := nic.New(eng, nic.Config{Queues: 1, RingSize: 1 << 20}, func(q int, pkt *nic.Packet) {
		_, _, _, reqID, _ := policy.DecodeHeader(pkt.Payload)
		if reqID%2 == 0 {
			g.Complete(reqID, eng.Now())
		}
	})
	g = New(eng, dev, Config{
		Rate: 10_000, DstPort: 9000,
		Warmup: 10 * sim.Millisecond, Measure: 100 * sim.Millisecond, Drain: 10 * sim.Millisecond,
	})
	res := g.RunToCompletion()
	st := res.All
	if st.TotalDrops() == 0 {
		t.Fatal("unanswered requests not counted as drops")
	}
	ratio := st.DropFraction()
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("drop fraction = %.2f, want ≈0.5", ratio)
	}
}

func TestGeneratorFlowPoolBounded(t *testing.T) {
	eng := sim.New(1)
	flows := map[uint32]bool{}
	var g *Generator
	dev := nic.New(eng, nic.Config{Queues: 1, RingSize: 1 << 20}, func(q int, pkt *nic.Packet) {
		flows[uint32(pkt.SrcIP)<<16|uint32(pkt.SrcPort)] = true
		_, _, _, reqID, _ := policy.DecodeHeader(pkt.Payload)
		g.Complete(reqID, eng.Now())
	})
	g = New(eng, dev, Config{
		Rate: 100_000, Flows: 50, DstPort: 9000,
		Warmup: 5 * sim.Millisecond, Measure: 50 * sim.Millisecond, Drain: 5 * sim.Millisecond,
	})
	g.RunToCompletion()
	if len(flows) != 50 {
		t.Fatalf("distinct flows = %d, want 50", len(flows))
	}
}

func TestGeneratorWarmupNotMeasured(t *testing.T) {
	cfg := Config{
		Rate: 10_000, DstPort: 9000,
		Warmup: 100 * sim.Millisecond, Measure: 100 * sim.Millisecond, Drain: 10 * sim.Millisecond,
	}
	_, g, srv := newEchoHost(t, cfg, sim.Microsecond)
	res := g.RunToCompletion()
	// The server saw roughly twice as many requests as were measured.
	if srv.seen < int(res.All.Offered)*3/2 {
		t.Fatalf("server saw %d, measured %d — warmup traffic missing", srv.seen, res.All.Offered)
	}
}

// TestClassWeightsRejected: weights are normalised, so only a mix that has
// no normal form is refused — a negative or non-finite weight (its
// cumulative table is not monotonic: every request would land in the last
// class) and a sum that is not positive (it divides into NaN thresholds).
func TestClassWeightsRejected(t *testing.T) {
	get := func(w float64) Class { return Class{Name: "GET", Weight: w, Type: policy.ReqGET} }
	scan := func(w float64) Class { return Class{Name: "SCAN", Weight: w, Type: policy.ReqSCAN} }
	for _, c := range []struct {
		name    string
		classes []Class
		want    string // substring of the panic; "" = accepted
	}{
		{"raw rates", []Class{get(99.5), scan(0.5)}, ""},
		{"one empty class", []Class{get(100), scan(0)}, ""},
		{"-scan-pct 150", []Class{get(-50), scan(150)}, `class "GET" has weight -50`},
		{"NaN", []Class{get(math.NaN()), scan(1)}, `class "GET" has weight NaN`},
		{"+Inf", []Class{get(1), scan(math.Inf(1))}, `class "SCAN" has weight +Inf`},
		{"all zero", []Class{get(0), scan(0)}, "weights sum to 0"},
		{"sum overflows", []Class{get(math.MaxFloat64), scan(math.MaxFloat64)}, "weights sum to +Inf"},
	} {
		func() {
			defer func() {
				got := fmt.Sprint(recover())
				if c.want == "" && got != "<nil>" || c.want != "" && !strings.Contains(got, c.want) {
					t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
				}
			}()
			eng := sim.New(1)
			New(eng, nic.New(eng, nic.Config{Queues: 1}, func(int, *nic.Packet) {}), Config{Rate: 1000, Classes: c.classes})
		}()
	}
}

func TestCompleteIsIdempotentAndBoundsChecked(t *testing.T) {
	cfg := Config{Rate: 1000, DstPort: 9000, Warmup: sim.Millisecond, Measure: 10 * sim.Millisecond, Drain: sim.Millisecond}
	_, g, _ := newEchoHost(t, cfg, sim.Microsecond)
	g.Complete(999999, 0) // before any send: must not panic
	c := g.RunToCompletion().All.Completed
	g.Complete(g.issued-1, 0) // double-complete the last request, a measured one
	if got := g.Result().All.Completed; c == 0 || got != c {
		t.Fatalf("completed %d after a double completion, want %d (> 0)", got, c)
	}
}

// heldPages counts the request-table pages the generator still holds.
func heldPages(g *Generator) int {
	n := 0
	for _, pg := range g.dir {
		if pg != nil {
			n++
		}
	}
	return n
}

// directHost wires a generator to a NIC whose host answers request id at
// once when answer(id) is true and never otherwise, freeing the packet
// either way.
func directHost(cfg Config, answer func(id uint64) bool) (*sim.Engine, *Generator) {
	eng := sim.New(3)
	var g *Generator
	var dev *nic.NIC
	dev = nic.New(eng, nic.Config{Queues: 1}, func(q int, pkt *nic.Packet) {
		id := pkt.ID
		dev.Consumed(q)
		pkt.Free()
		if answer(id) {
			g.Complete(id, eng.Now())
		}
	})
	g = New(eng, dev, cfg)
	return eng, g
}

// sendN issues n measured requests a nanosecond apart and delivers them.
func sendN(eng *sim.Engine, g *Generator, n int) {
	for i := 0; i < n; i++ {
		g.send(true)
		eng.RunUntil(eng.Now() + 1)
	}
	eng.Run()
}

// sendPaced is sendN with sends spaced so that a page's worth of requests
// takes one wire delay to issue: about one page is in flight at any
// instant, whatever the page size. (sendN's 1 ns spacing keeps 5 000
// requests, twenty 256-slot pages, in flight.)
func sendPaced(eng *sim.Engine, g *Generator, n int) {
	step := max(wire/pageSlots, 1)
	for i := 0; i < n; i++ {
		g.send(true)
		eng.RunUntil(eng.Now() + step)
	}
	eng.Run()
}

// TestTableBoundedByInFlight: the request table is sized by what is in
// flight. A million answered requests never hold more than four pages,
// where a table of the run's history would end at 245.
func TestTableBoundedByInFlight(t *testing.T) {
	cfg := Config{
		Rate: 2_000_000, Flows: 50, DstPort: 9000,
		Warmup: 50 * sim.Millisecond, Measure: 450 * sim.Millisecond, Drain: 10 * sim.Millisecond,
	}
	eng, g, _ := newEchoHost(t, cfg, 10*sim.Microsecond)
	g.Start()
	most := 0
	for now := sim.Millisecond; now <= 510*sim.Millisecond; now += sim.Millisecond {
		eng.RunUntil(now)
		most = max(most, heldPages(g))
	}
	if g.issued < 950_000 {
		t.Fatalf("issued %d requests, want about a million", g.issued)
	}
	if most > 4 {
		t.Fatalf("held %d pages at some sampled instant, want <= 4 (of %d opened)", most, len(g.dir))
	}
	st := g.Result().All
	if st.Completed != st.Offered || st.TotalDrops() != 0 {
		t.Fatalf("offered %d completed %d drops %d", st.Offered, st.Completed, st.TotalDrops())
	}
}

// TestZeroAllocSendComplete gates the generator's round: with the event
// pool warm, issuing a request, carrying it through the NIC and completing
// it allocates nothing — across page boundaries too, since pages come from
// and go back to the generator's free list.
func TestZeroAllocSendComplete(t *testing.T) {
	eng, g := directHost(Config{Rate: 1e6, Flows: 8, DstPort: 9000}, func(uint64) bool { return true })
	round := func() {
		g.send(true)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm the event pool and the latency bucket
		round()
	}
	if avg := testing.AllocsPerRun(3*pageSlots, round); avg != 0 {
		t.Fatalf("send+complete: %v allocs/op, want 0", avg)
	}
	if heldPages(g) != 1 || len(g.dir) < 4 {
		t.Fatalf("held %d of %d pages, want 1 of at least 4", heldPages(g), len(g.dir))
	}
}

// TestLateCompletionAcrossPages: a request answered three pages late pins
// its page meanwhile, gets the latency its own send time gives, and lets
// the page go once answered; a completion for a recycled page is the no-op
// a double completion is.
func TestLateCompletionAcrossPages(t *testing.T) {
	const late = 17
	eng, g := directHost(Config{Rate: 1e6, DstPort: 9000}, func(id uint64) bool { return id != late })
	sendN(eng, g, 3*pageSlots+100)
	if g.dir[0] == nil || g.dir[1] != nil || g.dir[2] != nil || heldPages(g) != 2 {
		t.Fatalf("held pages: first %v, %d in all; want the pinned first page and the current one", g.dir[0] != nil, heldPages(g))
	}
	st := g.LiveStats()[0]
	before, wantMax := st.Completed, st.Latency.Max()
	sentAt := reqSentAt(g.dir[0].words[late])
	if sentAt != late {
		t.Fatalf("request %d sent at %d, want %d", late, sentAt, late)
	}
	g.Complete(late, eng.Now())
	wantMax = max(wantMax, int64(eng.Now()+wire-sentAt))
	if st.Completed != before+1 || st.Latency.Max() != wantMax {
		t.Fatalf("late completion: completed %d -> %d, max latency %d, want %d", before, st.Completed, st.Latency.Max(), wantMax)
	}
	if g.dir[0] != nil {
		t.Fatal("first page still held after its last request completed")
	}
	// Page 0 is on the free list (or reused) now: nothing may change.
	count := st.Latency.Count()
	g.Complete(late, eng.Now())
	g.Complete(late+1, eng.Now())
	if st.Completed != before+1 || st.Latency.Count() != count || heldPages(g) != 1 {
		t.Fatalf("completion on a recycled page changed something: completed %d, held %d", st.Completed, heldPages(g))
	}
}

// TestUnansweredPinPagesAndResultIsIdempotent: with every second request
// unanswered each page stays held, Result counts the drops exactly from
// those pages, a second Result says the same, and a late completion moves
// one request from dropped to completed. Request ids not issued yet are
// ignored even where the current page has a slot for them. The run fills
// two pages and a quarter of a third.
func TestUnansweredPinPagesAndResultIsIdempotent(t *testing.T) {
	cfg := Config{Rate: 1e6, DstPort: 9000, Classes: []Class{
		{Name: "A", Weight: 0.5, Type: policy.ReqGET},
		{Name: "B", Weight: 0.5, Type: policy.ReqGET},
	}}
	eng, g := directHost(cfg, func(id uint64) bool { return id%2 == 0 })
	const tail = pageSlots / 4
	const n = 2*pageSlots + tail
	sendPaced(eng, g, n)
	if heldPages(g) != 3 || len(g.dir) != 3 {
		t.Fatalf("held %d of %d pages, want all 3 pinned", heldPages(g), len(g.dir))
	}
	g.Complete(n+5, eng.Now()) // the current page has the slot; the request does not exist yet
	if open := g.dir[2].open; open != tail/2 {
		t.Fatalf("current page has %d open requests, want %d", open, tail/2)
	}

	check := func(completed, drops uint64) {
		t.Helper()
		res := g.Result()
		all := res.All
		if all.Offered != n || all.Completed != completed || all.TotalDrops() != drops {
			t.Fatalf("offered %d completed %d drops %d, want %d %d %d", all.Offered, all.Completed, all.TotalDrops(), n, completed, drops)
		}
		var perClass uint64
		for _, st := range res.PerClass {
			if st.Offered != st.Completed+st.TotalDrops() {
				t.Fatalf("class not conserved: offered %d completed %d drops %d", st.Offered, st.Completed, st.TotalDrops())
			}
			perClass += st.TotalDrops()
		}
		if perClass != drops {
			t.Fatalf("per-class drops sum to %d, want %d", perClass, drops)
		}
	}
	check(n/2, n/2)
	check(n/2, n/2) // assigned, not accumulated
	g.Complete(1, eng.Now())
	check(n/2+1, n/2-1)
	g.Complete(1, eng.Now())
	check(n/2+1, n/2-1)
}

// TestClassLimit: the packed word has eight class bits, so a mix of more
// than 256 classes is rejected instead of wrapping, and the 256th class
// round-trips.
func TestClassLimit(t *testing.T) {
	mix := func(n int) []Class {
		cs := make([]Class, n)
		for i := range cs {
			cs[i] = Class{Name: fmt.Sprint("c", i), Weight: 1, Type: policy.ReqGET}
		}
		return cs
	}
	eng, g := directHost(Config{Rate: 1e6, DstPort: 9000, Classes: mix(maxClasses)}, func(uint64) bool { return true })
	sendN(eng, g, 4*maxClasses)
	if res := g.Result(); res.All.Completed != 4*maxClasses || len(res.PerClass) != maxClasses {
		t.Fatalf("completed %d over %d classes", res.All.Completed, len(res.PerClass))
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "at most 256") {
			t.Fatalf("257 classes: recovered %v, want a panic naming the limit", r)
		}
	}()
	New(sim.New(1), nil, Config{Rate: 1, Classes: mix(maxClasses + 1)})
}

// TestPackedWordRange pins the packed word's fields at their edges: the
// last class, and the last representable send time, 2^54-1 ns — about 208
// days of simulated time. One nanosecond more no longer fits.
func TestPackedWordRange(t *testing.T) {
	const last = sim.Time(1)<<54 - 1
	w := packReq(last, maxClasses-1, true) | wordDone
	if reqSentAt(w) != last || reqClass(w) != maxClasses-1 || w&wordMeasured == 0 || w&wordDone == 0 {
		t.Fatalf("word %#x: sentAt %d class %d", w, reqSentAt(w), reqClass(w))
	}
	if w = packReq(last, 0, false); reqSentAt(w) != last || reqClass(w) != 0 || w&(wordMeasured|wordDone) != 0 {
		t.Fatalf("word %#x: sentAt %d class %d", w, reqSentAt(w), reqClass(w))
	}
	if reqSentAt(packReq(last+1, 0, false)) == last+1 {
		t.Fatal("2^54 ns fits the packed word; the documented range is stale")
	}

	// End to end at the boundary: a request sent at 2^54-1 ns and answered
	// 7 ns later has latency 7 ns + wire.
	eng, g := directHost(Config{Rate: 1e6, DstPort: 9000}, func(uint64) bool { return false })
	eng.RunUntil(last)
	g.send(true)
	g.Complete(0, last+7)
	if got, want := g.LiveStats()[0].Latency.Max(), int64(7+wire); got != want {
		t.Fatalf("latency at the range's edge = %d ns, want %d", got, want)
	}
}

// droppingHost wires a generator to a NIC whose host drops every packet it
// is handed, through the drop sites' call.
func droppingHost(cfg Config) (*sim.Engine, *Generator) {
	eng := sim.New(5)
	var dev *nic.NIC
	dev = nic.New(eng, nic.Config{Queues: 1}, func(q int, pkt *nic.Packet) {
		dev.Consumed(q)
		pkt.Drop()
	})
	return eng, New(eng, dev, cfg)
}

// pagesOwned counts every page the generator owns: held in the directory
// or waiting on its free list.
func pagesOwned(g *Generator) int {
	n := heldPages(g)
	for pg := g.free; pg != nil; pg = pg.next {
		n++
	}
	return n
}

// TestLostRequestsHoldNoPages: a dropped request is settled where it is
// dropped. A million requests, every one dropped and about a page of them
// in flight at any instant, run on the three pages New prefills, through a
// directory that never outgrows its four entries, and every measured
// request is unanswered.
func TestLostRequestsHoldNoPages(t *testing.T) {
	eng, g := droppingHost(Config{Rate: 1e6, DstPort: 9000, Classes: []Class{
		{Name: "A", Weight: 0.5, Type: policy.ReqGET},
		{Name: "B", Weight: 0.5, Type: policy.ReqSCAN},
	}})
	const n = 1_000_000
	sendPaced(eng, g, n)
	if got := pagesOwned(g); got != prefillPages {
		t.Fatalf("generator owns %d pages, want the %d prefilled", got, prefillPages)
	}
	if len(g.dir) > 4 || cap(g.dir) > 4 {
		t.Fatalf("directory of %d entries (cap %d), want at most 4", len(g.dir), cap(g.dir))
	}
	if heldPages(g) != 1 || g.Lost() != n {
		t.Fatalf("held %d pages, lost %d; want the current page and %d", heldPages(g), g.Lost(), n)
	}
	res := g.Result()
	for name, st := range res.PerClass {
		if st.Offered == 0 || st.Completed != 0 || st.TotalDrops() != st.Offered {
			t.Fatalf("class %s: offered %d completed %d unanswered %d", name, st.Offered, st.Completed, st.TotalDrops())
		}
	}
	if all := res.All; all.Offered != n || all.TotalDrops() != n {
		t.Fatalf("offered %d unanswered %d, want %d of each", all.Offered, all.TotalDrops(), n)
	}
}

// TestFreeIsNotALoss: loss is never inferred from Free. The echo harness
// frees each packet before it completes the request, and every request
// still counts completed.
func TestFreeIsNotALoss(t *testing.T) {
	cfg := Config{Rate: 200_000, DstPort: 9000, Warmup: sim.Millisecond, Measure: 20 * sim.Millisecond, Drain: sim.Millisecond}
	_, g, _ := newEchoHost(t, cfg, 20*sim.Microsecond)
	st := g.RunToCompletion().All
	if st.Offered == 0 || st.Completed != st.Offered || st.TotalDrops() != 0 || g.Lost() != 0 {
		t.Fatalf("offered %d completed %d unanswered %d lost %d", st.Offered, st.Completed, st.TotalDrops(), g.Lost())
	}
}

// TestForeignDropIgnored: only a request in flight is settled by a drop. A
// cluster probe's id, an id not issued yet, an id on a recycled page, one
// below the directory's window, and a second drop of a lost request change
// nothing; nor does a completion of a lost request. About a page of
// requests is in flight at any instant.
func TestForeignDropIgnored(t *testing.T) {
	const late = 3*pageSlots + 9
	eng, g := directHost(Config{Rate: 1e6, DstPort: 9000}, func(id uint64) bool { return id != late })
	sendPaced(eng, g, 5*pageSlots+1)
	// The window has moved past page 0; the lost request's page is held and
	// the one before it is recycled inside the window.
	recycled := uint64(late-pageSlots) >> pageShift
	if g.base == 0 || recycled < g.base || g.dir[recycled-g.base] != nil || g.dir[recycled+1-g.base] == nil {
		t.Fatalf("window base %d over %d entries: want page 0 below it, page %d recycled in it and page %d held",
			g.base, len(g.dir), recycled, recycled+1)
	}
	drop := func(id uint64) {
		pkt := g.dev.NewPacket()
		pkt.ID = id
		pkt.Drop()
	}
	st := g.LiveStats()[0]
	check := func(what string, lost uint64, completed uint64) {
		t.Helper()
		if got := g.Result().All; g.Lost() != lost || st.Completed != completed || got.Offered != got.Completed+got.TotalDrops() {
			t.Fatalf("%s: lost %d completed %d (offered %d, unanswered %d), want lost %d completed %d",
				what, g.Lost(), st.Completed, got.Offered, got.TotalDrops(), lost, completed)
		}
	}
	completed := st.Completed
	check("before", 0, completed)
	for _, id := range []uint64{1 << 62, 1<<62 + 31, g.issued, g.issued + 1} {
		drop(id)
	}
	check("foreign ids", 0, completed)
	drop(0)                // below the window
	drop(late - pageSlots) // on a recycled page inside the window
	drop(late + 1)         // answered already
	check("settled ids", 0, completed)
	drop(late)
	check("a lost request", 1, completed)
	if g.dir[recycled+1-g.base] != nil {
		t.Fatal("the page of the lost request is still held")
	}
	drop(late)
	g.Complete(late, eng.Now())
	check("a second drop and a completion", 1, completed)
	if got := g.Result().All.TotalDrops(); got != 1 {
		t.Fatalf("unanswered %d, want the one lost request", got)
	}
}

// TestZeroAllocLossyRun gates the lossy round: with every packet dropped,
// issuing a request, carrying it through the NIC and settling it as lost
// allocates nothing, across page boundaries too — the directory makes room
// in place instead of growing by a pointer per page. The count is taken
// over eight pages' worth of requests at once, so an allocation per page
// shows too.
func TestZeroAllocLossyRun(t *testing.T) {
	eng, g := droppingHost(Config{Rate: 1e6, Flows: 8, DstPort: 9000})
	round := func() {
		g.send(true)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm the event pool
		round()
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 8 * pageSlots {
			round()
		}
	}); n != 0 {
		t.Fatalf("send+drop: %v allocations over %d requests, want 0", n, 8*pageSlots)
	}
	if heldPages(g) != 1 || g.base < 8 {
		t.Fatalf("held %d pages, window base %d; want 1 page held past at least 8 recycled", heldPages(g), g.base)
	}
}
