package storage

import (
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/metrics"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

func TestDeviceCompletesIOs(t *testing.T) {
	eng := sim.New(1)
	var finished []sim.Time
	d := NewDevice(&hook.Host{Eng: eng}, Config{
		Queues:     2,
		OnComplete: func(req *Request, at sim.Time) { finished = append(finished, at) },
	})
	if !d.Submit(&Request{ID: 1, Kind: Read, LBA: 0}) {
		t.Fatal("read rejected")
	}
	if !d.Submit(&Request{ID: 2, Kind: Write, LBA: 1}) {
		t.Fatal("write rejected")
	}
	eng.Run()
	if len(finished) != 2 {
		t.Fatalf("completed %d", len(finished))
	}
	if finished[0] != readCost || finished[1] != writeCost {
		t.Fatalf("completion times %v, want [%v %v]", finished, readCost, writeCost)
	}
	if d.Stats.Completed != 2 {
		t.Fatalf("stats %v", d.Stats)
	}
}

func TestDeviceQueuesSerializeIndependently(t *testing.T) {
	eng := sim.New(1)
	d := NewDevice(&hook.Host{Eng: eng}, Config{Queues: 2})
	// Two reads on queue 0 serialize; one on queue 1 runs in parallel.
	d.Submit(&Request{ID: 1, Kind: Read, LBA: 0})
	d.Submit(&Request{ID: 2, Kind: Read, LBA: 2}) // also queue 0
	d.Submit(&Request{ID: 3, Kind: Read, LBA: 1}) // queue 1
	eng.Run()
	if eng.Now() != 2*readCost {
		t.Fatalf("drained at %v, want two reads' worth, %v", eng.Now(), 2*readCost)
	}
}

func TestDeviceQueueDepthBound(t *testing.T) {
	eng := sim.New(1)
	d := NewDevice(&hook.Host{Eng: eng}, Config{Queues: 1})
	accepted := 0
	for i := 0; i < queueDepth+6; i++ {
		if d.Submit(&Request{ID: uint64(i), Kind: Read, LBA: 0}) {
			accepted++
		}
	}
	if accepted != queueDepth || d.Stats.RejectedFull != 6 {
		t.Fatalf("accepted=%d rejectedFull=%d", accepted, d.Stats.RejectedFull)
	}
	eng.Run()
	// Space freed: new submissions accepted again.
	if !d.Submit(&Request{ID: 99, Kind: Read, LBA: 0}) {
		t.Fatal("post-drain submit rejected")
	}
}

// The §6.1 headline: the unmodified token.syr network policy performs
// Reflex-style IO admission control.
func TestTokenPolicyGatesIOSubmissions(t *testing.T) {
	eng := sim.New(1)
	d := NewDevice(&hook.Host{Eng: eng}, Config{Queues: 2})
	v, err := policy.Verify(policy.NameToken, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, maps, err := v.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	d.SubmitHook().Set(prog)
	tokens := maps["tokens"]
	tokens.UpdateUint64(7, 3) // tenant 7 may issue 3 IOs

	accepted := 0
	for i := 0; i < 5; i++ {
		if d.Submit(&Request{ID: uint64(i), Tenant: 7, Kind: Read, LBA: uint64(i)}) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("token admission let %d of 5 through, want 3", accepted)
	}
	if drops := d.SubmitHook().Stats().Drops; drops != 2 {
		t.Fatalf("policy rejects = %d", drops)
	}
	// Other tenants with zero balance are rejected outright.
	if d.Submit(&Request{ID: 9, Tenant: 8, Kind: Read, LBA: 0}) {
		t.Fatal("zero-balance tenant admitted")
	}
	eng.Run()
}

// Steering policy: a queue-reservation policy (SITA for IO) keeps reads
// off the write queue.
func TestSteeringPolicySeparatesReadsAndWrites(t *testing.T) {
	eng := sim.New(1)
	d := NewDevice(&hook.Host{Eng: eng}, Config{Queues: 4})
	// Writes (type PUT=3 at payload offset 0 → wire offset 8) to queue 0,
	// reads striped over 1..3.
	src := `
.const PUT 3
.map rr array 4 8 1
  r6 = *(u64 *)(r1 + 0)
  r7 = *(u64 *)(r1 + 8)
  r2 = r6
  r2 += 16
  if r2 > r7 goto pass
  r3 = *(u64 *)(r6 + 8)
  if r3 != PUT goto read
  r0 = 0
  exit
read:
  *(u32 *)(r10 - 4) = 0
  r1 = map(rr)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r6 %= 3
  r6 += 1
  r0 = r6
  exit
pass:
  r0 = PASS
  exit
`
	f, err := ebpf.Assemble(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ebpf.Verify("io-sita", f)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := v.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	d.SubmitHook().Set(prog)
	for i := 0; i < 6; i++ {
		d.Submit(&Request{ID: uint64(i), Kind: Write, LBA: uint64(i)})
	}
	for i := 0; i < 9; i++ {
		d.Submit(&Request{ID: uint64(100 + i), Kind: Read, LBA: uint64(i)})
	}
	if d.queues[0].depth != 6 {
		t.Fatalf("write queue depth = %d, want 6", d.queues[0].depth)
	}
	for q := 1; q < 4; q++ {
		if d.queues[q].depth != 3 {
			t.Fatalf("read queue %d depth = %d, want 3", q, d.queues[q].depth)
		}
	}
	eng.Run()
}

// End-to-end QoS scenario: a latency-sensitive read tenant sharing the
// device with a write-flooding tenant. Token admission on the flooder
// keeps read tails bounded.
func TestReflexStyleQoS(t *testing.T) {
	run := func(withPolicy bool) (readP99 float64) {
		eng := sim.New(3)
		lat := metrics.NewHistogram()
		d := NewDevice(&hook.Host{Eng: eng}, Config{
			Queues: 4,
			OnComplete: func(req *Request, at sim.Time) {
				if req.Tenant == 0 && req.Kind == Read {
					lat.Record(int64(at - req.SubmittedAt))
				}
			},
		})
		var tokens *ebpf.Map
		if withPolicy {
			v, err := policy.Verify(policy.NameToken, nil)
			if err != nil {
				t.Fatal(err)
			}
			prog, maps, err := v.Bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			d.SubmitHook().Set(prog)
			tokens = maps["tokens"]
			// Tenant 0 (reads) effectively unthrottled; tenant 1 (writes)
			// capped at 200 IOPS via periodic refills.
			tokens.UpdateUint64(0, 1<<40)
			eng.NewTicker(5*sim.Millisecond, func() {
				tokens.UpdateUint64(1, 1) // 200 write IOPS
			})
		}
		// Tenant 0: 2000 read IOPS. Tenant 1: 3000 write IOPS offered.
		id := uint64(0)
		eng.NewTicker(500*sim.Microsecond, func() {
			id++
			d.Submit(&Request{ID: id, Tenant: 0, Kind: Read, LBA: uint64(eng.Rand().IntN(1 << 20))})
		})
		eng.NewTicker(333*sim.Microsecond, func() {
			id++
			d.Submit(&Request{ID: id, Tenant: 1, Kind: Write, LBA: uint64(eng.Rand().IntN(1 << 20))})
		})
		eng.RunUntil(2 * sim.Second)
		return float64(lat.Percentile(99)) / 1000
	}
	unprotected := run(false)
	protected := run(true)
	if protected*2 > unprotected {
		t.Fatalf("token admission did not protect reads: p99 %0.fus (protected) vs %.0fus (unprotected)",
			protected, unprotected)
	}
	if protected > 2_000 {
		t.Fatalf("protected read p99 = %.0fus, want bounded", protected)
	}
}
