package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"syrup"
	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

// Table2Row is one policy's overhead line (paper Table 2).
type Table2Row struct {
	Policy string
	// LoC counts non-comment lines of the .syr policy file.
	LoC int
	// Instructions is the bytecode length: the stream the verifier
	// admitted, which is the stream that executes.
	Instructions int
	// MeanExecInsns is the average instructions executed per decision.
	MeanExecInsns float64
	// WallNanos is the measured wall-clock cost per decision of the
	// compiled policy (Program.Run; decision only).
	WallNanos float64
	// ModelCycles is the decision+enforcement cost the simulation charges
	// (Table 2's "Cycles" column: the paper measures ≈1.6k cycles, mostly
	// enforcement).
	ModelCycles float64
}

// Table2 regenerates the policy-overhead table by loading each policy and
// running it against representative packets.
func Table2() ([]Table2Row, error) {
	// The modeled enforcement cost: hook.RunCost (0.7 µs) at 2.3 GHz.
	const modelCyclesPerDecision = float64(hook.RunCost) * 2.3

	cases := []struct {
		name    string
		defines map[string]int64
		mkCtx   func(i int) *ebpf.Ctx
	}{
		{policy.NameRoundRobin, map[string]int64{"NUM_THREADS": 6}, getCtx},
		{policy.NameScanAvoid, map[string]int64{"NUM_THREADS": 6}, getCtx},
		{policy.NameSITA, policy.SITADefines(6), mixedCtx},
		{policy.NameToken, nil, getCtx},
		{policy.NameHash, map[string]int64{"NUM_EXECUTORS": 6}, getCtx},
		{policy.NameMicaHash, map[string]int64{"NUM_EXECUTORS": 8}, getCtx},
		{policy.NamePrio, map[string]int64{"NUM_EXECUTORS": 6}, getCtx},
		{policy.NameUserWeight, map[string]int64{"NUM_EXECUTORS": 6}, getCtx},
	}
	var rows []Table2Row
	for _, c := range cases {
		v, err := policy.Verify(c.name, c.defines)
		if err != nil {
			return nil, err
		}
		prog, maps, err := v.Bind(nil)
		if err != nil {
			return nil, err
		}
		// Seed maps so the hot path is exercised (tokens available, scan
		// state populated).
		if m := maps["tokens"]; m != nil {
			m.UpdateUint64(0, 1<<40)
		}
		if m := maps["scan_state"]; m != nil {
			for i := uint32(0); i < 6; i++ {
				m.UpdateUint64(i, policy.ReqGET)
			}
		}
		if m := maps["weights"]; m != nil {
			// One heavy and one light user so both pool paths run.
			m.UpdateUint64(0, 64)
			m.UpdateUint64(1, 1)
		}
		env := &ebpf.Env{Prandom: xorshiftEnv()}

		const iters = 20000
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, _, err := prog.Run(c.mkCtx(i), env); err != nil {
				return nil, fmt.Errorf("table2: %s: %w", c.name, err)
			}
		}
		wall := float64(time.Since(start).Nanoseconds()) / iters
		rows = append(rows, Table2Row{
			Policy:        c.name,
			LoC:           v.SourceLines(),
			Instructions:  prog.Len(),
			MeanExecInsns: prog.MeanInsnsPerRun(),
			WallNanos:     wall,
			ModelCycles:   modelCyclesPerDecision,
		})
	}
	return rows, nil
}

func getCtx(i int) *ebpf.Ctx {
	payload := policy.EncodeHeader(policy.ReqGET, uint32(i%2), uint32(i), uint64(i))
	wire := make([]byte, 8+len(payload))
	copy(wire[8:], payload)
	return &ebpf.Ctx{Packet: wire, Hash: uint32(i) * 2654435761, Port: 9000}
}

func mixedCtx(i int) *ebpf.Ctx {
	typ := policy.ReqGET
	if i%200 == 0 {
		typ = policy.ReqSCAN
	}
	payload := policy.EncodeHeader(typ, 0, uint32(i), uint64(i))
	wire := make([]byte, 8+len(payload))
	copy(wire[8:], payload)
	return &ebpf.Ctx{Packet: wire, Hash: uint32(i), Port: 9000}
}

func xorshiftEnv() func() uint32 {
	s := uint32(0x2545f491)
	return func() uint32 {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		return s
	}
}

// FormatTable2 renders the rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("== table2: Overhead of different Syrup policies (paper Table 2) ==\n\n")
	fmt.Fprintf(&b, "%-14s %6s %10s %16s %18s %14s\n",
		"Policy", "LoC", "Insns", "ExecInsns/run", "ns/run", "ModelCycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d %10d %16.1f %18.1f %14.0f\n",
			r.Policy, r.LoC, r.Instructions, r.MeanExecInsns, r.WallNanos, r.ModelCycles)
	}
	b.WriteString("\nnotes:\n  - paper: RR 6 LoC/56 insns, SCAN Avoid 21/311, SITA 16/81, Token 45/106; cycles 1563-1709 dominated by enforcement\n")
	b.WriteString("  - Insns is the stream the verifier admitted, which is the stream that executes (see `syrup-policy disasm`)\n")
	b.WriteString("  - ns/run is the wall-clock cost of one compiled Program.Run on this machine (decision only)\n")
	b.WriteString("  - ModelCycles is the fixed decision+enforcement charge the simulation applies per hook invocation (0.7us at 2.3GHz)\n")
	return b.String()
}

// Table3Row is one map-operation latency line (paper Table 3).
type Table3Row struct {
	Backend   string
	GetNanos  float64
	UpdNanos  float64
	Contended bool
}

// Table3 regenerates the Map operation latency table on one host. The host
// rows time the control protocol's map_lookup / map_update on a map the
// app pinned, each a round trip through the mailbox of the loop that owns
// the host (syrupd.Server.Do): the one way another goroutine reaches a
// host's maps; each reports the fastest of 20 batches of 10 000 round
// trips. The contended rows have a second client's map_updates queued in
// the same mailbox. The offloaded rows are the same map declared
// on the host's NIC, paying the simulated PCIe round trip.
func Table3() []Table3Row {
	const slots, path = 1 << 20, "/syrup/1/t3"
	host, app := syrup.MustHostApp(syrup.HostConfig{}, 1, 1000)
	m, err := app.CreateMap(ebpf.MapSpec{Name: "t3", Type: ebpf.MapArray, KeySize: 4, ValueSize: 8, MaxEntries: slots})
	if err != nil {
		panic(err)
	}
	for i := uint32(0); i < slots; i += 1 << 10 {
		m.UpdateElem(i, uint64(i))
	}
	// Two round trips on the host's own engine, run to empty rather than
	// through finish: there is no generator.
	om := host.NIC.OffloadMap(m.Raw())
	var offGet, offUpd sim.Time
	start := host.Now()
	om.LookupUint64(0, func(uint64, bool) { offGet = host.Now() - start })
	host.Run()
	start = host.Now()
	om.UpdateUint64(0, 1, func(error) { offUpd = host.Now() - start })
	host.Run()

	// From here on the host is Serve's; the clients post to its mailbox.
	srv := syrupd.NewServer(host.Daemon)
	go srv.Serve(nil, nil)
	// fastest times 20 equal batches of round trips of req, step setting
	// up the i-th, and returns the fastest batch's mean: the floor of a
	// round trip, which whatever else the box runs can only raise.
	fastest := func(req *syrupd.Request, step func(i int)) float64 {
		const batches, n = 20, 10000
		best := math.Inf(1)
		for b := range batches {
			start := time.Now()
			for i := range n {
				step(b*n + i)
				srv.Do(req)
			}
			best = min(best, float64(time.Since(start).Nanoseconds())/n)
		}
		return best
	}
	measure := func() (float64, float64) {
		req := syrupd.Request{Op: "map_lookup", Path: path, UID: 1000}
		get := fastest(&req, func(i int) { req.Key = uint32(i) & (slots - 1) })
		req.Op = "map_update"
		return get, fastest(&req, func(i int) { req.Key, req.Value = uint32(i)&(slots-1), uint64(i) })
	}
	hostGet, hostUpd := measure()

	// The contender updates until Close answers it with an error.
	contender := make(chan struct{})
	go func() {
		defer close(contender)
		req := syrupd.Request{Op: "map_update", Path: path, UID: 1000, Value: 1}
		for _, err := srv.Do(&req); err == nil; _, err = srv.Do(&req) {
			req.Key = (req.Key + 7) & (slots - 1)
		}
	}()
	hostGetC, hostUpdC := measure()
	srv.Close()
	<-contender

	return []Table3Row{
		{Backend: "Host", GetNanos: hostGet, UpdNanos: hostUpd},
		{Backend: "Host Contended", GetNanos: hostGetC, UpdNanos: hostUpdC, Contended: true},
		{Backend: "Offload", GetNanos: float64(offGet), UpdNanos: float64(offUpd)},
		{Backend: "Offload Contended", GetNanos: float64(offGet), UpdNanos: float64(offUpd), Contended: true},
	}
}

// FormatTable3 renders the rows like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("== table3: Map operation latency for different backends (paper Table 3) ==\n\n")
	fmt.Fprintf(&b, "%-20s %14s %14s\n", "Backend", "Get (nsec)", "Update (nsec)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14.0f %14.0f\n", r.Backend, r.GetNanos, r.UpdNanos)
	}
	b.WriteString("\nnotes:\n  - paper: host ~1000ns, offload ~25000ns (Netronome PCIe round trip)\n")
	b.WriteString("  - host rows are wall-clock measurements of syrupd's map_lookup/map_update on one host (the fastest of 20 batches of 10000 round trips), contended by a second client's updates in the same mailbox; offload rows are the simulated 25us RTT\n")
	return b.String()
}
