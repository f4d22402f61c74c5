package syrupd

import (
	"slices"
	"strings"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/sim"
)

// The daemon's half of the telemetry plane: it holds the host's sampler
// (which itself attaches to the engine at host construction), enumerates
// the host's counters from the objects that own them, turns on
// per-instruction policy profiling for future deploys, and renders
// per-deployment profiles for the profile op.

// SetObs hands the daemon the host's telemetry sampler: its store backs
// the timeseries and metrics ops and the adapt controller, its registered
// histograms the stats and metrics ops. nil detaches (the ops then report
// that telemetry is disabled).
func (d *Daemon) SetObs(sa *obs.Sampler) { d.sampler = sa }

// Obs returns the host's telemetry store, or nil.
func (d *Daemon) Obs() *obs.Store {
	if d.sampler == nil {
		return nil
	}
	return d.sampler.Store()
}

// Counters is the one enumeration of this host's counters: every hook
// point the host owns — NIC offload, XDP, CPU redirect, each UDP and TCP
// reuseport group by ascending port, the storage submit hook, each app's
// ghOSt agent — as ebpf_hook_runs_<point> / ebpf_hook_faults_<point>, the
// ebpf_hook_faults total across them and syrupd_quarantines, sorted by
// name. The values are the owners' own
// plain fields, so the listing is per host by construction; like Links it
// must be read from the event loop's goroutine (the server's big lock).
func (d *Daemon) Counters() []metrics.CounterValue {
	var points []*hook.Point
	if d.dev != nil {
		points = append(points, d.dev.Offload())
	}
	points = d.stack.HookPoints(points)
	if d.store != nil {
		points = append(points, d.store.SubmitHook())
	}
	for _, app := range d.appsByID() {
		if app.agent != nil {
			points = append(points, app.agent.Hook())
		}
	}

	out := make([]metrics.CounterValue, 0, 2*len(points)+2)
	var faults uint64
	for _, pt := range points {
		st := pt.Stats()
		runsKey, faultsKey := pt.StatsKeys()
		out = append(out,
			metrics.CounterValue{Name: runsKey, Value: st.Runs},
			metrics.CounterValue{Name: faultsKey, Value: st.Faults})
		faults += st.Faults
	}
	out = append(out,
		metrics.CounterValue{Name: "ebpf_hook_faults", Value: faults},
		metrics.CounterValue{Name: "syrupd_quarantines", Value: d.quarantines})
	slices.SortFunc(out, func(a, b metrics.CounterValue) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Now reports the host's sim clock — the timestamp stats/metrics replies
// carry so repeated delta snapshots normalize into true rates.
func (d *Daemon) Now() sim.Time { return d.eng.Now() }

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
