// Package workload provides the open-loop load generator the experiments
// use (the paper's mutilate-style client, §5.1): Poisson arrivals at a
// configured rate, a bounded pool of 5-tuples (Fig. 2 uses 50), per-class
// request mixes (GET/SCAN, GET/PUT, LS/BE tenants), and end-to-end latency
// accounting with warmup/measure windows and drop attribution.
package workload

import (
	"fmt"
	"math"
	"math/bits"

	"syrup/internal/metrics"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// Class is one request class within the mix.
type Class struct {
	Name string
	// Weight is the class's share of the total rate.
	Weight float64
	// Type is the request type header value (policy.ReqGET etc.).
	Type uint64
	// UserID tags the tenant (token policy).
	UserID uint32
}

// Flow is one client 5-tuple endpoint, addressable at cluster scope: the
// L4 load balancer steers a flow to a host by Hash, so a flow's packets
// always land on the same backend. Every client address is 10.0.x.x, so a
// flow is its address's 16 low bits and its port: 4 bytes.
type Flow struct {
	Host, Port uint16
}

// IP is the flow's source address, 10.0.0.0 | Host.
func (f Flow) IP() uint32 { return 0x0a000000 | uint32(f.Host) }

// Hash is the flow's steering hash: FNV-1a over the six identifying bytes
// (the same construction as the NIC's RSS hash, minus the fixed server
// side). The cluster LB's Maglev table and any test reasoning about
// placement must use this exact function.
func (f Flow) Hash() uint32 {
	h := uint32(2166136261)
	ip := f.IP()
	for _, b := range [...]byte{
		byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip),
		byte(f.Port >> 8), byte(f.Port),
	} {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// DrawFlows returns the first n distinct flows next yields, in the order
// it yields them. It is the one pool draw: the cluster's (a splitmix
// stream off the cluster seed) and a generator's host-local one (the host
// PRNG) differ only in next. Duplicates are found in a flat open-addressed
// table over the flow's 48 packed bits (uint64(IP())<<16 | Port), so a draw
// is two allocations whatever n is, and about one table probe per
// candidate.
func DrawFlows(n int, next func() Flow) []Flow {
	if n <= 0 {
		return nil
	}
	// Linear probing at load <= 1/2 over a power-of-two table; the slot is
	// the top bits of a Fibonacci hash, and a key is stored with its top
	// bit set so that zero marks an empty slot.
	logSize := bits.Len(uint(2*n - 1))
	table := make([]uint64, 1<<logSize)
	mask := uint64(len(table) - 1)
	flows := make([]Flow, 0, n)
	for len(flows) < n {
		f := next()
		key := uint64(f.IP())<<16 | uint64(f.Port) | 1<<63
		i := key * 0x9e3779b97f4a7c15 >> (64 - logSize)
		for table[i] != 0 && table[i] != key {
			i = (i + 1) & mask
		}
		if table[i] == key {
			continue
		}
		table[i] = key
		flows = append(flows, f)
	}
	return flows
}

// wire is the one-way client↔server latency.
const wire = 5 * sim.Microsecond

// Config describes one load point.
type Config struct {
	// Rate is offered load in requests/second across all classes. When
	// the rate in force (RateFn's, else this) is not positive as the next
	// gap is due, the arrival process ends: a cluster member steered no
	// flows gets rate 0 and sends nothing.
	Rate float64
	// RateFn, when set, makes the offered rate time-varying: each arrival
	// gap is drawn against RateFn(now) instead of Rate (diurnal sweeps,
	// burst plateaus). The exponential draw happens either way, so a nil
	// RateFn preserves the PRNG stream exactly — runs without it are
	// bit-identical to builds that predate it. Non-positive returns fall
	// back to Rate.
	RateFn func(sim.Time) float64
	// Deadline, when set, counts completions whose end-to-end latency is
	// at or under it as RunStats.DeadlineHits — the goodput metric
	// latency/goodput frontiers plot. Zero disables deadline accounting.
	Deadline sim.Time
	// Classes defaults to 100% GET.
	Classes []Class
	// Flows is the 5-tuple pool size (50 in Fig. 2); arrivals pick a flow
	// uniformly at random.
	Flows int
	// FlowSet, when non-nil, pins the 5-tuple pool instead of drawing
	// Flows random ones from the host PRNG. The cluster layer splits one
	// fleet-wide pool across hosts by LB steering and hands each host its
	// share here, so arrivals are cluster-addressable flows rather than
	// host-local inventions. A share can be empty (the LB steers no flow to
	// the host): such a generator has no flows and sends nothing.
	//
	// The generator reads FlowSet and never writes it: it is shared, not
	// copied. Split's shares are windows onto one array.
	FlowSet []Flow
	// KeyShard/KeyShards restrict generated keys to one cluster shard:
	// keys are drawn until policy.KeyShardOf(keyHash, KeyShards) ==
	// KeyShard. This models shard-aware clients (MICA's design carried to
	// cluster scope: the client computes the key hash and addresses the
	// owning host directly). KeyShards <= 1 disables sharding.
	KeyShard  int
	KeyShards int
	// DstPort is the server port.
	DstPort uint16
	// KeySpace bounds generated key hashes.
	KeySpace int
	// Warmup and Measure delimit the measurement window; requests sent
	// during warmup are served but not recorded.
	Warmup  sim.Time
	Measure sim.Time
	// Drain is extra time after the last send for in-flight requests to
	// finish before unfinished ones count as dropped.
	Drain sim.Time
}

func (c *Config) fill() {
	if c.KeyShards > 1 && (c.KeyShard < 0 || c.KeyShard >= c.KeyShards) {
		panic(fmt.Sprintf("workload: KeyShard %d outside [0,%d)", c.KeyShard, c.KeyShards))
	}
	if len(c.Classes) > maxClasses {
		panic(fmt.Sprintf("workload: %d classes, the request table holds at most %d", len(c.Classes), maxClasses))
	}
	if len(c.Classes) == 0 {
		c.Classes = []Class{{Name: "GET", Weight: 1, Type: policy.ReqGET}}
	}
	// Weights are normalised, so only their ratios matter — but a negative
	// one makes the cumulative table non-monotonic (every request lands in
	// the last class) and a zero sum divides it into NaNs.
	var sum float64
	for _, cl := range c.Classes {
		if cl.Weight < 0 || math.IsNaN(cl.Weight) || math.IsInf(cl.Weight, 0) {
			panic(fmt.Sprintf("workload: class %q has weight %v, want a finite value >= 0", cl.Name, cl.Weight))
		}
		sum += cl.Weight
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		panic(fmt.Sprintf("workload: class weights sum to %v, want a finite value > 0", sum))
	}
	if c.Flows == 0 {
		c.Flows = 1024
	}
	if c.KeySpace == 0 {
		c.KeySpace = 10_000
	}
	if c.Warmup == 0 {
		c.Warmup = 200 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 800 * sim.Millisecond
	}
	if c.Drain == 0 {
		c.Drain = 300 * sim.Millisecond
	}
}

// The request table holds one packed word per request,
//
//	sentAt<<10 | class<<2 | measured<<1 | done
//
// so sentAt has 54 bits (2^54 ns ≈ 208 days of simulated time) and class
// has 8 (Config.fill rejects a mix of more than maxClasses). Words live in
// fixed pages behind a directory, a window over the live pages: dir[i] is
// page base+i of reqID>>pageShift. A request is settled once — answered
// (Complete) or lost (its NIC's loss sink, fed by every drop site's
// nic.Packet.Drop) — and a page goes back to the generator's free list once
// every slot on it has been issued and settled, so the table is sized by
// what is in flight, not by the run's history. Only a request still in
// flight pins its page: a late completion still finds its sentAt, and
// Result counts it as unanswered from the pages still held.
const (
	pageShift = 8
	pageSlots = 1 << pageShift
	pageMask  = pageSlots - 1

	wordDone     = 1 << 0
	wordMeasured = 1 << 1
	classShift   = 2
	sentShift    = 10
	maxClasses   = 1 << (sentShift - classShift)

	// prefillPages pages are allocated in New: a run with at most a page of
	// requests in flight holds the page being filled and the one before it
	// while its stragglers finish, so with one to spare it allocates no
	// page while it runs. The directory starts with room for one more.
	prefillPages = 3
)

type page struct {
	words [pageSlots]uint64
	// open counts the page's issued requests that have not completed.
	open int
	next *page // free list
}

func packReq(sentAt sim.Time, class int, measured bool) uint64 {
	w := uint64(sentAt)<<sentShift | uint64(class)<<classShift
	if measured {
		w |= wordMeasured
	}
	return w
}

func reqSentAt(w uint64) sim.Time { return sim.Time(w >> sentShift) }
func reqClass(w uint64) int       { return int(w >> classShift & (maxClasses - 1)) }

// Generator injects load into a NIC and collects results.
type Generator struct {
	eng *sim.Engine
	dev *nic.NIC
	cfg Config

	cum []float64 // cumulative class weights
	// flows is cfg.FlowSet, or else randomized per run: re-running with a
	// new seed redraws the 5-tuple pool, which is where Fig. 2's run-to-run
	// hash-imbalance noise comes from.
	flows  []Flow
	perCls []*metrics.RunStats
	// lostCls counts each class's measured requests lost; lost counts every
	// request lost, warm-up included.
	lostCls []uint64
	lost    uint64

	// The paged request table (see pageShift). dir[i] holds page base+i,
	// nil once recycled, and the last entry is the page being filled; when
	// the directory is full, opening a page first drops its recycled head
	// entries in place. issued is the next request id, so slots at or past
	// it hold a recycled page's stale words and are never read.
	dir    []*page
	base   uint64
	free   *page
	issued uint64

	// Arrival-process state plus the two stored closure-free callbacks
	// (next-arrival tick and wire-delay delivery), so the per-request hot
	// loop schedules without allocating.
	endAt       sim.Time
	measureFrom sim.Time
	arriveCB    sim.Callback
	rxCB        sim.Callback
}

// New creates a generator. Call Start to begin the run, then advance the
// engine, then Result.
func New(eng *sim.Engine, dev *nic.NIC, cfg Config) *Generator {
	cfg.fill()
	g := &Generator{eng: eng, dev: dev, cfg: cfg, dir: make([]*page, 0, prefillPages+1)}
	for i := 0; i < prefillPages; i++ {
		g.free = &page{next: g.free}
	}
	var sum float64
	for _, c := range cfg.Classes {
		sum += c.Weight
		g.cum = append(g.cum, sum)
		g.perCls = append(g.perCls, metrics.NewRunStats())
	}
	g.lostCls = make([]uint64, len(cfg.Classes))
	if math.Abs(sum-1) > 1e-6 {
		// Normalize rather than reject: callers often pass raw rates.
		for i := range g.cum {
			g.cum[i] /= sum
		}
	}
	if cfg.FlowSet != nil {
		// Cluster-assigned flows: the pool was drawn (and steered) at
		// cluster scope, so the host PRNG is not consumed here.
		g.flows = cfg.FlowSet
	} else {
		rng := eng.Rand()
		g.flows = DrawFlows(cfg.Flows, func() Flow {
			return Flow{Host: uint16(rng.Uint32N(1 << 16)), Port: uint16(1024 + rng.IntN(60000))}
		})
	}
	g.arriveCB = func(any, uint64) {
		now := g.eng.Now()
		if now >= g.endAt {
			return
		}
		g.send(now >= g.measureFrom)
		g.scheduleNext()
	}
	g.rxCB = func(arg any, _ uint64) { g.dev.Receive(arg.(*nic.Packet)) }
	if dev != nil {
		dev.OnLoss(g.lose)
	}
	return g
}

// settle marks request reqID done and recycles its page once every request
// on it has been issued and settled. It returns the request's word, or
// false for an id the table does not hold in flight: not issued yet (a
// cluster probe's, say), on a recycled page, or already settled.
func (g *Generator) settle(reqID uint64) (uint64, bool) {
	pi := reqID >> pageShift
	if reqID >= g.issued || pi < g.base {
		return 0, false
	}
	pg := g.dir[pi-g.base]
	if pg == nil {
		return 0, false // recycled: every request on the page had already settled
	}
	w := pg.words[reqID&pageMask]
	if w&wordDone != 0 {
		return 0, false
	}
	pg.words[reqID&pageMask] = w | wordDone
	if pg.open--; pg.open == 0 && (pi+1)<<pageShift <= g.issued {
		g.dir[pi-g.base] = nil
		pg.next, g.free = g.free, pg
	}
	return w, true
}

// lose is the NIC's loss sink: the host dropped request reqID, so no
// answer will come. The request is settled like a completion and counted
// lost; a measured one is unanswered in its class.
func (g *Generator) lose(reqID uint64) {
	w, ok := g.settle(reqID)
	if !ok {
		return
	}
	g.lost++
	if w&wordMeasured != 0 {
		g.lostCls[reqClass(w)]++
	}
}

// Lost reports every request the host dropped, warm-up included: the
// losses its drop sites reported through the NIC's loss sink.
func (g *Generator) Lost() uint64 { return g.lost }

// Complete is the server-side completion callback (wire latency back to
// the client is added here).
func (g *Generator) Complete(reqID uint64, finish sim.Time) {
	w, ok := g.settle(reqID)
	if !ok || w&wordMeasured == 0 {
		return
	}
	st := g.perCls[reqClass(w)]
	st.Completed++
	lat := finish + wire - reqSentAt(w)
	st.Latency.Record(int64(lat))
	if g.cfg.Deadline > 0 && lat <= g.cfg.Deadline {
		st.DeadlineHits++
	}
}

// Start schedules the arrival process: sends begin immediately and stop
// after Warmup+Measure. A generator with no flows (an empty cluster share)
// has nothing to send and arms nothing.
func (g *Generator) Start() {
	g.endAt = g.eng.Now() + g.cfg.Warmup + g.cfg.Measure
	g.measureFrom = g.eng.Now() + g.cfg.Warmup
	if len(g.flows) > 0 {
		g.scheduleNext()
	}
}

// scheduleNext draws the next Poisson gap and arms the arrival event. The
// gap draw stays here — after send()'s class/key/flow draws — so the PRNG
// consumption order matches run-to-run regardless of engine internals.
// RateFn only rescales the drawn gap, so time-varying load consumes the
// stream in exactly the same order.
//
// A generator whose effective rate is not positive arms nothing: its
// arrival process is over. So is one whose gap lands past the last
// representable instant (a rate so small the gap overflows sim.Time).
// Without the check the gap converts to a negative Time, which clamps to
// 1 ns: a zero-rate generator would send every nanosecond.
func (g *Generator) scheduleNext() {
	rate := g.cfg.Rate
	if g.cfg.RateFn != nil {
		if r := g.cfg.RateFn(g.eng.Now()); r > 0 {
			rate = r
		}
	}
	if !(rate > 0) {
		return
	}
	f := g.eng.Rand().ExpFloat64() / rate * 1e9
	if !(f < math.MaxInt64) || sim.Time(f) > math.MaxInt64-g.eng.Now() {
		return
	}
	gap := max(sim.Time(f), 1)
	g.eng.CallAfter(gap, g.arriveCB, nil, 0)
}

// LiveStats exposes the per-class RunStats (indexed like Config.Classes)
// that Complete updates in place during the run, so a telemetry sampler
// can read counts and latency percentiles mid-run. Result finalizes the
// same objects.
func (g *Generator) LiveStats() []*metrics.RunStats { return g.perCls }

func (g *Generator) send(measured bool) {
	rng := g.eng.Rand()
	// Pick a class by weight.
	r := rng.Float64()
	cls := len(g.cum) - 1
	for i, c := range g.cum {
		if r < c {
			cls = i
			break
		}
	}
	class := g.cfg.Classes[cls]

	reqID := g.issued
	if reqID&pageMask == 0 {
		pg := g.free
		if pg == nil {
			pg = new(page)
		} else {
			g.free = pg.next
		}
		if len(g.dir) == cap(g.dir) {
			g.compact()
		}
		g.dir = append(g.dir, pg)
	}
	pg := g.dir[len(g.dir)-1]
	pg.words[reqID&pageMask] = packReq(g.eng.Now(), cls, measured)
	pg.open++
	g.issued++
	if measured {
		g.perCls[cls].Offered++
	}

	key := uint64(rng.Int64N(int64(g.cfg.KeySpace)))
	keyHash := uint32(key * 2654435761 % (1 << 31))
	if g.cfg.KeyShards > 1 {
		// Shard-aware client: redraw until the key belongs to this host's
		// shard. The shard function uses the hash's high bits, so
		// within-host steering (keyHash % NUM_EXECUTORS) stays uniform.
		for policy.KeyShardOf(keyHash, g.cfg.KeyShards) != g.cfg.KeyShard {
			key = uint64(rng.Int64N(int64(g.cfg.KeySpace)))
			keyHash = uint32(key * 2654435761 % (1 << 31))
		}
	}

	flow := g.flows[rng.IntN(len(g.flows))]
	pkt := g.dev.NewPacket()
	pkt.ID = reqID
	pkt.SrcIP = flow.IP()
	pkt.DstIP = 0x0a00ffff
	pkt.SrcPort = flow.Port
	pkt.DstPort = g.cfg.DstPort
	pkt.Payload = policy.AppendHeader(pkt.HeaderBuf(), class.Type, class.UserID, keyHash, reqID)
	pkt.SentAt = g.eng.Now()
	// The packet reaches the NIC one wire delay later.
	g.eng.CallAfter(wire, g.rxCB, pkt, 0)
}

// compact drops the directory's recycled head entries, moving the window's
// base past them, so a full directory makes room in place: it grows only
// while a page at its head is still held.
func (g *Generator) compact() {
	k := 0
	for k < len(g.dir) && g.dir[k] == nil {
		k++
	}
	n := copy(g.dir, g.dir[k:])
	clear(g.dir[n:])
	g.dir = g.dir[:n]
	g.base += uint64(k)
}

// Result is a run's statistics: anything sent in the measure window and
// still unfinished counts as a drop. Take it after the engine has run
// through Warmup+Measure+Drain.
type Result struct {
	PerClass map[string]*metrics.RunStats
	All      *metrics.RunStats
}

// Result computes the run's statistics. A class's unanswered measured
// requests are those it lost plus those still open on the pages held (a
// page with none has been recycled), assigned, so calling it again — also
// after a late Complete — reports the table as it then stands.
func (g *Generator) Result() *Result {
	unanswered := append([]uint64(nil), g.lostCls...)
	for i, pg := range g.dir {
		if pg == nil {
			continue
		}
		n := min(g.issued-(g.base+uint64(i))<<pageShift, pageSlots)
		for _, w := range pg.words[:n] {
			if w&(wordMeasured|wordDone) == wordMeasured {
				unanswered[reqClass(w)]++
			}
		}
	}
	res := &Result{PerClass: make(map[string]*metrics.RunStats), All: metrics.NewRunStats()}
	for i, c := range g.cfg.Classes {
		st := g.perCls[i]
		st.Unanswered = unanswered[i]
		st.WindowNanos = int64(g.cfg.Measure)
		res.PerClass[c.Name] = st
		res.All.Merge(st)
	}
	res.All.WindowNanos = int64(g.cfg.Measure)
	return res
}

// RunToCompletion drives the engine through warmup, measurement, and
// drain, returning the finalized result. It is the one-call form used by
// the experiment harness.
func (g *Generator) RunToCompletion() *Result {
	g.Start()
	g.eng.RunUntil(g.eng.Now() + g.cfg.Warmup + g.cfg.Measure + g.cfg.Drain)
	return g.Result()
}
