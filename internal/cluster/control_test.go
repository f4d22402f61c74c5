package cluster

import (
	"testing"

	"syrup"
	"syrup/internal/faults"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

const (
	testApp  = 1
	testUID  = 1000
	testPort = 9000
)

// newTestCluster builds a cluster where every member has the test app
// registered with two reuseport sockets on testPort, so socket-select
// policies actually execute against probe traffic.
func newTestCluster(t *testing.T, hosts int, tune func(i int, cfg *syrup.HostConfig)) *Cluster {
	t.Helper()
	c, err := New(Config{Hosts: hosts, Seed: 42, TableSize: 251, Tune: tune})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Members {
		if _, err := m.Host.RegisterApp(testApp, testUID, testPort); err != nil {
			t.Fatal(err)
		}
		m.Host.Stack.NewUDPSocket(testPort, testApp, "w0")
		m.Host.Stack.NewUDPSocket(testPort, testApp, "w1")
	}
	return c
}

// probePacket builds one GET request addressed to the member's test app.
func probePacket(m *Member, id uint64, port uint16) *nic.Packet {
	p := m.Host.NIC.NewPacket()
	p.ID = id
	p.SrcIP = 0x0a000001
	p.DstIP = 0x0a0000ff
	p.SrcPort = uint16(1024 + id%997)
	p.DstPort = port
	p.Payload = policy.AppendHeader(p.HeaderBuf(), policy.ReqGET, 0, uint32(id*2654435761), id)
	p.SentAt = m.Host.Now()
	return p
}

func attachedCount(c *Cluster) int {
	n := 0
	for _, m := range c.Members {
		if m.Host.Stack.LookupGroup(testPort).Hook().Attached() {
			n++
		}
	}
	return n
}

func TestCanaryOrderDeterministicPerSeed(t *testing.T) {
	a, _ := New(Config{Hosts: 16, Seed: 42, TableSize: 251})
	b, _ := New(Config{Hosts: 16, Seed: 42, TableSize: 251})
	ao, bo := a.CanaryOrder(), b.CanaryOrder()
	seen := make([]bool, 16)
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("order differs at %d: %d vs %d", i, ao[i], bo[i])
		}
		if seen[ao[i]] {
			t.Fatalf("member %d appears twice", ao[i])
		}
		seen[ao[i]] = true
	}
	c, _ := New(Config{Hosts: 16, Seed: 99, TableSize: 251})
	co := c.CanaryOrder()
	same := true
	for i := range ao {
		if ao[i] != co[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 99 produced identical canary orders")
	}
}

// TestRolloutHealthyFleetWide: a clean canary bake deploys everywhere and
// records the fleet release.
func TestRolloutHealthyFleetWide(t *testing.T) {
	c := newTestCluster(t, 8, nil)
	rep, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted {
		t.Fatalf("healthy rollout aborted: %s", rep.Reason)
	}
	if rep.CanaryFaults != 0 {
		t.Fatalf("canary faults = %d, want 0", rep.CanaryFaults)
	}
	if len(rep.Canaries) != 1 { // ceil(8/8)
		t.Fatalf("canaries = %v, want 1 host", rep.Canaries)
	}
	if rep.Deployed != 8 {
		t.Fatalf("deployed to %d hosts, want 8", rep.Deployed)
	}
	if got := attachedCount(c); got != 8 {
		t.Fatalf("policy attached on %d hosts, want 8", got)
	}
	// The canary actually executed probe traffic during the bake.
	canary := c.Members[rep.Canaries[0]]
	if f := canary.Host.Daemon.Links(); len(f) == 0 || f[0].Runs == 0 {
		t.Fatalf("canary policy never ran during bake: %+v", f)
	}
	if _, ok := c.released[releaseKey{testApp, syrup.HookSocketSelect}]; !ok {
		t.Fatal("successful rollout did not record the fleet release")
	}
}

// TestRolloutAbortsOnCanaryFaults: with fault injection arming every
// socket-select run, the canary bake blows the (zero) fault budget; the
// rollout aborts, the canaries are detached back to the kernel default,
// and the rest of the fleet never sees the policy.
func TestRolloutAbortsOnCanaryFaults(t *testing.T) {
	c := newTestCluster(t, 8, func(i int, cfg *syrup.HostConfig) {
		cfg.Faults = &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}}}
	})
	rep, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted {
		t.Fatal("faulting canary did not abort the rollout")
	}
	if rep.CanaryFaults == 0 {
		t.Fatal("abort with zero observed faults")
	}
	if rep.RolledBack {
		t.Fatal("RolledBack set with no previous release")
	}
	if rep.Deployed != 0 {
		t.Fatalf("aborted rollout reports %d deployed", rep.Deployed)
	}
	if got := attachedCount(c); got != 0 {
		t.Fatalf("policy still attached on %d hosts after abort", got)
	}
	if _, ok := c.released[releaseKey{testApp, syrup.HookSocketSelect}]; ok {
		t.Fatal("aborted rollout recorded a fleet release")
	}
}

// TestRolloutAbortRestoresPreviousRelease: release v1 fleet-wide, arm
// faults, then try v2 — the abort must put v1 back on the canaries, not
// leave them on the kernel default.
func TestRolloutAbortRestoresPreviousRelease(t *testing.T) {
	c := newTestCluster(t, 8, nil)
	v1 := "r0 = 0\nexit\n"
	if rep, err := c.Rollout(RolloutConfig{App: testApp, Hook: syrup.HookSocketSelect, Source: v1}); err != nil || rep.Aborted {
		t.Fatalf("v1 rollout failed: %v %+v", err, rep)
	}
	for _, m := range c.Members {
		m.Host.Stack.SetFaults((&faults.Plan{
			Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}},
		}).Compile(m.Seed, m.Host.Eng.Now))
	}
	rep, err := c.Rollout(RolloutConfig{App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted || !rep.RolledBack {
		t.Fatalf("want aborted+rolled-back, got %+v", rep)
	}
	// Every host (canaries included) is back on a policy — v1 restored.
	if got := attachedCount(c); got != 8 {
		t.Fatalf("policy attached on %d hosts after rollback, want 8", got)
	}
	if rel := c.released[releaseKey{testApp, syrup.HookSocketSelect}]; rel.source != v1 {
		t.Fatalf("fleet release changed by aborted rollout: %q", rel.source)
	}
}

func TestRolloutValidation(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	if _, err := c.Rollout(RolloutConfig{App: testApp, Hook: syrup.HookSocketSelect}); err == nil {
		t.Fatal("rollout with neither Policy nor Source accepted")
	}
	if _, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Policy: "x", Source: "y",
	}); err == nil {
		t.Fatal("rollout with both Policy and Source accepted")
	}
	if _, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookThreadSched, Source: "r0 = 0\nexit\n",
	}); err == nil {
		t.Fatal("thread-policy rollout accepted")
	}
	if _, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Policy: "no_such_builtin",
	}); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestEscalateQuarantines: three of eight hosts locally quarantine the
// policy via their own fault watchdogs; the control plane notices the
// fleet-wide pattern and pulls the policy on the remaining five.
func TestEscalateQuarantines(t *testing.T) {
	faulty := map[int]bool{1: true, 4: true, 6: true}
	c := newTestCluster(t, 8, func(i int, cfg *syrup.HostConfig) {
		if faulty[i] {
			cfg.Faults = &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}}}
		}
		cfg.Quarantine = &syrupd.QuarantineConfig{Window: sim.Millisecond, Threshold: 5}
	})
	// Deploy everywhere with a budget big enough that the staged rollout
	// itself survives the faulty canaries (escalation, not rollout, is
	// under test).
	rep, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n",
		FaultBudget: 1 << 30, Probes: 1, Bake: sim.Microsecond,
	})
	if err != nil || rep.Aborted {
		t.Fatalf("deploy failed: %v %+v", err, rep)
	}

	// Drive traffic through every host so the faulty ones trip their local
	// watchdogs (>=5 faults inside a 1ms window).
	c.RunAll(1, func(m *Member) {
		for i := 0; i < 40; i++ {
			id := uint64(i)
			pkt := probePacket(m, id, testPort)
			m.Host.Eng.CallAt(m.Host.Now()+sim.Time(i)*50*sim.Microsecond, func(any, uint64) { m.Host.NIC.Receive(pkt) }, nil, 0)
		}
		m.Host.RunFor(3 * sim.Millisecond)
	})
	for i, m := range c.Members {
		if got := m.Host.Daemon.Quarantined(testApp, syrup.HookSocketSelect); got != faulty[i] {
			t.Fatalf("host %d locally quarantined=%v, want %v", i, got, faulty[i])
		}
	}

	// 3/8 hosts >= 25% of the fleet: escalate to the other five.
	got := c.EscalateQuarantines(0.25)
	if len(got) != 1 {
		t.Fatalf("escalations = %+v, want exactly one", got)
	}
	fq := got[0]
	if fq.App != testApp || fq.Hook != syrup.HookSocketSelect || fq.Local != 3 || fq.Escalated != 5 {
		t.Fatalf("escalation = %+v, want app=1 hook=socket_select local=3 escalated=5", fq)
	}
	for i, m := range c.Members {
		if !m.Host.Daemon.Quarantined(testApp, syrup.HookSocketSelect) {
			t.Fatalf("host %d not quarantined after escalation", i)
		}
	}
	// Idempotent: a second scan has nothing left to escalate.
	if again := c.EscalateQuarantines(0.25); len(again) != 1 || again[0].Escalated != 0 {
		t.Fatalf("re-escalation = %+v, want local-only record", again)
	}

	// Below-threshold patterns stay local: a fresh cluster with one faulty
	// host out of eight must not escalate at 25%.
	c2 := newTestCluster(t, 8, func(i int, cfg *syrup.HostConfig) {
		if i == 2 {
			cfg.Faults = &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}}}
		}
		cfg.Quarantine = &syrupd.QuarantineConfig{Window: sim.Millisecond, Threshold: 5}
	})
	if rep, err := c2.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Source: "r0 = 1\nexit\n",
		FaultBudget: 1 << 30, Probes: 1, Bake: sim.Microsecond,
	}); err != nil || rep.Aborted {
		t.Fatalf("deploy failed: %v %+v", err, rep)
	}
	c2.RunAll(1, func(m *Member) {
		for i := 0; i < 40; i++ {
			id := uint64(i)
			pkt := probePacket(m, id, testPort)
			m.Host.Eng.CallAt(m.Host.Now()+sim.Time(i)*50*sim.Microsecond, func(any, uint64) { m.Host.NIC.Receive(pkt) }, nil, 0)
		}
		m.Host.RunFor(3 * sim.Millisecond)
	})
	if got := c2.EscalateQuarantines(0.25); len(got) != 0 {
		t.Fatalf("1/8 hosts escalated at 25%%: %+v", got)
	}
	quarantined := 0
	for _, m := range c2.Members {
		if m.Host.Daemon.Quarantined(testApp, syrup.HookSocketSelect) {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Fatalf("%d hosts quarantined, want the 1 local trip only", quarantined)
	}
}
