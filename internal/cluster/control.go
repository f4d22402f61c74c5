package cluster

import (
	"fmt"

	"syrup"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/syrupd"
)

// releaseKey identifies a fleet release target.
type releaseKey struct {
	app  uint32
	hook syrup.Hook
}

// RolloutConfig describes one staged fleet rollout.
type RolloutConfig struct {
	// App is the target application id; it must already be registered on
	// every member (app registration is topology, not policy — the
	// scenario builder owns it).
	App uint32
	// Hook is the deployment point. Thread policies (HookThreadSched) are
	// userspace code, not .syr artifacts, and do not roll out this way.
	Hook syrup.Hook
	// Policy names the built-in policy to release.
	Policy string
	// Defines are deploy-time constants.
	Defines map[string]int64
}

// RolloutReport is the control plane's record of one rollout.
type RolloutReport struct {
	// Canaries lists the stage-1 member indices in deployment order.
	Canaries []int
	// CanaryFaults is the total hook faults the canaries accumulated
	// during the bake.
	CanaryFaults uint64
	// Aborted reports a failed canary stage; Reason says why. RolledBack
	// is true when the canaries were restored to the previous release
	// (false: detached to the kernel default — there was nothing to
	// restore).
	Aborted    bool
	Reason     string
	RolledBack bool
	// Deployed counts members running the new policy after the rollout.
	Deployed int
}

func (r *RolloutReport) String() string {
	if r.Aborted {
		return fmt.Sprintf("rollout ABORTED after canary stage %v: %s (faults=%d, rolled back=%v)",
			r.Canaries, r.Reason, r.CanaryFaults, r.RolledBack)
	}
	return fmt.Sprintf("rollout ok: canaries %v baked clean (faults=%d), deployed to %d hosts",
		r.Canaries, r.CanaryFaults, r.Deployed)
}

func (cfg *RolloutConfig) check() error {
	if _, err := policy.Source(cfg.Policy); err != nil {
		return fmt.Errorf("cluster: rollout: %w", err)
	}
	if cfg.Hook == syrup.HookThreadSched {
		return fmt.Errorf("cluster: thread policies are userspace code and do not roll out as .syr artifacts")
	}
	return nil
}

const (
	// bake is the virtual time each canary runs before health evaluation.
	bake = 2 * sim.Millisecond
	// policyProbes is the number of synthetic probe requests a policy
	// rollout injects into each canary during the bake, spread across the
	// window: a policy must execute to fault, so the bake sends traffic
	// through it. Any hook fault the canaries take during the bake aborts
	// the rollout.
	policyProbes = 32
)

// CanaryOrder derives the rollout order: a seeded Fisher-Yates
// permutation of member indices, so canary choice is deterministic per
// cluster seed but not biased toward low indices.
func (c *Cluster) CanaryOrder() []int {
	order := make([]int, len(c.Members))
	for i := range order {
		order[i] = i
	}
	state := splitmix64(c.cfg.Seed ^ 0x63616e617279) // "canary"
	for i := len(order) - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// stagedRollout is one run of the fleet's rollout state machine. What is
// rolled out lives in the three callbacks; the staging around them is the
// same for a policy and for a rule table.
type stagedRollout struct {
	// app and probes drive each bake's probe traffic.
	app    uint32
	probes int
	// apply installs the artifact on one member.
	apply func(idx int) error
	// health inspects the canaries after a bake and returns why the
	// rollout must abort, or "".
	health func(canaries []int) string
	// revert undoes apply on one canary of an aborted rollout.
	revert func(idx int) error
}

// staged applies to the canary subset (the head of CanaryOrder, one host
// in eight rounded up), bakes every canary, asks health, and only then
// applies to the rest of the fleet, in canary order for determinism; a
// failed canary stage reverts the canaries instead. It returns the
// canaries and why the stage failed, or "".
func (c *Cluster) staged(s stagedRollout) (canaries []int, reason string, err error) {
	order, n := c.CanaryOrder(), (len(c.Members)+7)/8
	canaries = append([]int(nil), order[:n]...)
	for _, idx := range canaries {
		if err := s.apply(idx); err != nil {
			return canaries, "", err
		}
	}
	for _, idx := range canaries {
		c.bake(c.Members[idx], s.app, s.probes)
	}
	reason = s.health(canaries)
	rest, step := order[n:], s.apply
	if reason != "" {
		rest, step = canaries, s.revert
	}
	for _, idx := range rest {
		if err := step(idx); err != nil {
			return canaries, reason, err
		}
	}
	return canaries, reason, nil
}

// Rollout deploys a built-in policy across the fleet in two stages:
// deploy to a canary subset, bake it under probe traffic, evaluate the
// canaries' hook-fault counters, and only then deploy to the rest. A
// canary stage that takes any fault aborts the rollout and restores the
// canaries to the previous fleet release (or detaches them to the kernel
// default when none exists). A successful rollout records the policy as
// the new fleet release. The policy is verified once, and every member
// binds that one verification.
func (c *Cluster) Rollout(cfg RolloutConfig) (*RolloutReport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	v, err := syrupd.Verify(cfg.App, cfg.Hook, policy.MustSource(cfg.Policy), cfg.Defines)
	if err != nil {
		return nil, fmt.Errorf("cluster: rollout: %w", err)
	}
	rep := &RolloutReport{}
	key := releaseKey{cfg.App, cfg.Hook}
	prev, havePrev := c.released[key]
	// before holds each member's fault count as of its deploy, so a bake's
	// faults are the new policy's own.
	before := make(map[int]uint64)
	canaries, reason, err := c.staged(stagedRollout{
		app: cfg.App, probes: policyProbes,
		apply: func(idx int) error {
			m := c.Members[idx]
			if _, err := m.Host.Daemon.Deploy(cfg.App, cfg.Hook, v); err != nil {
				return fmt.Errorf("cluster: %s: %w", m.Name, err)
			}
			before[idx] = c.hookFaults(idx, cfg.App, cfg.Hook)
			return nil
		},
		health: func(canaries []int) string {
			rep.CanaryFaults = 0
			for _, idx := range canaries {
				rep.CanaryFaults += c.hookFaults(idx, cfg.App, cfg.Hook) - before[idx]
			}
			if rep.CanaryFaults > 0 {
				return fmt.Sprintf("canary faults %d exceed budget 0", rep.CanaryFaults)
			}
			return ""
		},
		revert: func(idx int) error {
			m := c.Members[idx]
			if havePrev {
				if _, err := m.Host.Daemon.Deploy(cfg.App, cfg.Hook, prev); err != nil {
					return fmt.Errorf("cluster: restore %s: %w", m.Name, err)
				}
			} else if err := m.Host.Daemon.DetachApp(cfg.App, cfg.Hook); err != nil {
				return fmt.Errorf("cluster: detach %s: %w", m.Name, err)
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	rep.Canaries = canaries
	if reason != "" {
		rep.Aborted, rep.Reason, rep.RolledBack = true, reason, havePrev
		return rep, nil
	}
	rep.Deployed = len(c.Members)
	c.released[key] = v
	return rep, nil
}

// hookFaults sums the app's per-deployment fault counters at hk on member
// idx.
func (c *Cluster) hookFaults(idx int, app uint32, hk syrup.Hook) uint64 {
	var n uint64
	for _, l := range c.Members[idx].Host.Daemon.Links() {
		if l.App == app && l.Hook == string(hk) {
			n += l.Faults
		}
	}
	return n
}

// bake advances one canary by the bake window while feeding it probe
// requests: probes GET packets spread across the window, addressed to the
// app's first claimed port from a dedicated probe flow. Probe request ids
// live far above any workload id (2^62+) so completion callbacks ignore
// them, and each member's probes ride its own engine — baking never
// couples hosts.
func (c *Cluster) bake(m *Member, appID uint32, probes int) {
	app := m.Host.Daemon.App(appID)
	if app == nil || len(app.Ports) == 0 || probes <= 0 {
		m.Host.RunFor(bake)
		return
	}
	port := app.Ports[0]
	gap := bake / sim.Time(probes+1)
	if gap < 1 {
		gap = 1
	}
	rx := func(pkt any, _ uint64) { m.Host.NIC.Receive(pkt.(*nic.Packet)) }
	for i := 0; i < probes; i++ {
		pkt := m.Host.NIC.NewPacket()
		pkt.ID = probeIDBase + uint64(i)
		pkt.SrcIP = 0x0afe0000 + uint32(m.Index)
		pkt.DstIP = 0x0a00ffff
		pkt.SrcPort = uint16(1024 + i)
		pkt.DstPort = port
		pkt.Payload = policy.AppendHeader(pkt.HeaderBuf(), policy.ReqGET, 0, uint32(splitmix64(uint64(i))), probeIDBase+uint64(i))
		pkt.SentAt = m.Host.Now() + sim.Time(i+1)*gap
		m.Host.Eng.CallAt(pkt.SentAt, rx, pkt, 0)
	}
	m.Host.RunFor(bake)
}

// probeIDBase keeps probe request ids out of every workload generator's
// id space (generators index requests densely from 0).
const probeIDBase = uint64(1) << 62
