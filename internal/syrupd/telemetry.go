package syrupd

import (
	"syrup/internal/ebpf"
	"syrup/internal/sim"
)

// The daemon's half of the telemetry plane: it serves the host's sampler
// (hook.Host.Obs) to the ops, turns on per-instruction policy profiling for
// future deploys, and renders per-deployment profiles for the profile op.

// Now reports the host's sim clock — the timestamp stats/metrics replies
// carry so repeated delta snapshots normalize into true rates.
func (d *Daemon) Now() sim.Time { return d.host.Eng.Now() }

// SetPolicyProfile makes future DeployPolicy calls load with
// bpf_stats_enabled-style profiling (run count/ns plus per-instruction
// hit counters; see ebpf.LoadOptions.Profile). Already-deployed programs
// are unaffected; redeploy to profile them.
func (d *Daemon) SetPolicyProfile(v bool) { d.policyProfile = v }

// QuarantinedCount reports how many (app, hook) deployments the watchdog
// currently holds quarantined — a live gauge for the sampler.
func (d *Daemon) QuarantinedCount() int {
	n := 0
	for _, app := range d.apps {
		n += len(app.quarantined)
	}
	return n
}

// GhostRunnable sums the runnable ghOSt threads across every app's agent
// — a live gauge for the sampler.
func (d *Daemon) GhostRunnable() int {
	n := 0
	for _, app := range d.apps {
		if app.agent != nil {
			n += app.agent.Runnable()
		}
	}
	return n
}

// ProfileInfo is the wire form of one profiled deployment (the profile
// op), keyed like LinkInfo.
type ProfileInfo struct {
	App      uint32  `json:"app"`
	Hook     string  `json:"hook"`
	Target   string  `json:"target"`
	Program  string  `json:"program"`
	Runs     uint64  `json:"runs"`
	Insns    uint64  `json:"insns"`
	Nanos    uint64  `json:"nanos"`
	NsPerRun float64 `json:"ns_per_run"`
	// Hits holds per-instruction execution counts; Disasm the
	// hotness-annotated disassembly when requested.
	Hits   []uint64 `json:"hits,omitempty"`
	Disasm string   `json:"disasm,omitempty"`
}

// Profiles renders every profiled live deployment, ordered by app id then
// deployment order (deterministic, like Links). Deployments loaded
// without profiling are skipped.
func (d *Daemon) Profiles(annotate bool) []ProfileInfo {
	var out []ProfileInfo
	for _, app := range d.appsByID() {
		for _, al := range app.links {
			var prog *ebpf.Program
			switch {
			case al.prog != nil:
				prog = al.prog
			case al.link != nil:
				prog = al.link.Program()
			}
			if prog == nil || !prog.Profiling() {
				continue
			}
			snap := prog.Profile()
			info := ProfileInfo{
				App: al.App, Hook: string(al.Hook), Target: al.Target,
				Program: prog.Name(), Runs: snap.Runs, Insns: snap.Insns,
				Nanos: snap.Nanos, NsPerRun: snap.NanosPerRun(), Hits: snap.Hits,
			}
			if annotate {
				info.Disasm = prog.AnnotatedDisasm()
			}
			out = append(out, info)
		}
	}
	return out
}
