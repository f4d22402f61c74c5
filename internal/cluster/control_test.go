package cluster

import (
	"testing"

	"syrup"
	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/nic"
	"syrup/internal/policy"
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
	c, err := New(Config{Hosts: hosts, Seed: 42, Tune: tune})
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

// twoSockets sizes a built-in to the test app's two sockets.
var twoSockets = map[string]int64{"NUM_THREADS": 2, "NUM_EXECUTORS": 2}

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
	a, _ := New(Config{Hosts: 16, Seed: 42})
	b, _ := New(Config{Hosts: 16, Seed: 42})
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
	c, _ := New(Config{Hosts: 16, Seed: 99})
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
		App: testApp, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin, Defines: twoSockets,
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
		App: testApp, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin, Defines: twoSockets,
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
	key := releaseKey{testApp, syrup.HookSocketSelect}
	if rep, err := c.Rollout(RolloutConfig{App: testApp, Hook: syrup.HookSocketSelect, Policy: policy.NameHash, Defines: twoSockets}); err != nil || rep.Aborted {
		t.Fatalf("v1 rollout failed: %v %+v", err, rep)
	}
	v1 := c.released[key]
	for _, m := range c.Members {
		m.Host.Faults = (&faults.Plan{
			Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1}},
		}).Compile(m.Seed, m.Host.Eng.Now)
	}
	rep, err := c.Rollout(RolloutConfig{App: testApp, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin, Defines: twoSockets})
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
	if c.released[key] != v1 {
		t.Fatal("fleet release changed by aborted rollout")
	}
	// The canaries were restored from the release's own verification.
	for _, idx := range rep.Canaries {
		if l := c.Members[idx].Host.Daemon.App(testApp).Link(syrup.HookSocketSelect); l.Verified != v1 {
			t.Fatalf("canary %d restored from a new verification", idx)
		}
	}
}

// TestRolloutVerifiesOnce: a rollout verifies its policy once and every
// member binds that one verification — each into its own program and its
// own maps, so no host shares state with another.
func TestRolloutVerifiesOnce(t *testing.T) {
	c := newTestCluster(t, 8, nil)
	if _, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Policy: policy.NameRoundRobin, Defines: twoSockets,
	}); err != nil {
		t.Fatal(err)
	}
	verified := map[*ebpf.Verified]bool{}
	progs := map[*ebpf.Program]bool{}
	maps := map[*ebpf.Map]bool{}
	for _, m := range c.Members {
		l := m.Host.Daemon.App(testApp).Link(syrup.HookSocketSelect)
		verified[l.Verified] = true
		progs[l.Program()] = true
		for _, mp := range l.Maps {
			maps[mp] = true
		}
	}
	if rel := c.released[releaseKey{testApp, syrup.HookSocketSelect}]; len(verified) != 1 || rel == nil || !verified[rel] {
		t.Fatalf("%d verifications for one rollout, want the one released", len(verified))
	}
	if len(progs) != len(c.Members) || len(maps) != len(c.Members) {
		t.Fatalf("%d programs and %d maps on %d hosts: Bind must give each host its own", len(progs), len(maps), len(c.Members))
	}
}

func TestRolloutValidation(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	if _, err := c.Rollout(RolloutConfig{App: testApp, Hook: syrup.HookSocketSelect}); err == nil {
		t.Fatal("rollout with no Policy accepted")
	}
	if _, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookThreadSched, Policy: policy.NameRoundRobin,
	}); err == nil {
		t.Fatal("thread-policy rollout accepted")
	}
	if _, err := c.Rollout(RolloutConfig{
		App: testApp, Hook: syrup.HookSocketSelect, Policy: "no_such_builtin",
	}); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}
