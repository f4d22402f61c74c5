package syrupd

import (
	"fmt"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
)

// AppLink is syrupd's record of one live deployment — the daemon-side
// bpf_link. Direct attachments (Socket Select groups, the storage submit
// hook, thread policies) wrap the layer's hook.Link, so detaching and
// live-replacing go through the framework. Device-wide hooks (XDP, CPU
// Redirect, offload) instead wrap a slot in the hook's isolation
// dispatcher: the trusted root program stays attached and the app owns a
// PROG_ARRAY entry, so revocation clears the slot and the root PASSes.
type AppLink struct {
	App    uint32
	Hook   Hook
	Target string // hook point instance name ("socket_select:9000", "xdp", ...)

	app *App

	// Direct attachment.
	link *hook.Link

	// Dispatcher-slot deployment.
	disp *dispatcher
	slot uint32
	prog *ebpf.Program
	// priorRuns/priorFaults accumulate counts of earlier program
	// generations in the slot, so Runs and Faults survive redeploys like
	// hook.Link stats do.
	priorRuns   uint64
	priorFaults uint64
}

// Label names the running program (or userspace policy) generation.
func (l *AppLink) Label() string {
	if l.link != nil {
		return l.link.Label()
	}
	if l.prog != nil {
		return l.prog.Name()
	}
	return ""
}

// Runs reports how many times this deployment's program ran. For
// dispatcher slots the tail-called program counts its own runs, so the
// number is per-tenant even though the hook point belongs to the root.
func (l *AppLink) Runs() uint64 {
	if l.link != nil {
		return l.link.Stats().Runs
	}
	if l.prog != nil {
		return l.priorRuns + l.prog.Stats().Runs
	}
	return l.priorRuns
}

// program is the program generation now installed, or nil for a
// userspace policy.
func (l *AppLink) program() *ebpf.Program {
	if l.link != nil {
		return l.link.Program()
	}
	return l.prog
}

// Faults reports runtime faults attributed to this deployment. Direct
// links read the hook point's per-link fault count; dispatcher slots read
// the tail-called program's own fault counter (the VM charges a runtime
// error to the program whose instruction faulted), so the number is
// per-tenant even though the hook point belongs to the root.
func (l *AppLink) Faults() uint64 {
	if l.link != nil {
		return l.link.Stats().Faults
	}
	if l.prog != nil {
		return l.priorFaults + l.prog.Stats().Faults
	}
	return l.priorFaults
}

// detach tears the deployment down: direct links detach from their hook
// point; dispatcher slots are cleared (the root then PASSes the tenant's
// packets to the default path).
func (l *AppLink) detach() {
	if l.link != nil {
		l.link.Detach()
		return
	}
	if l.disp != nil {
		l.disp.remove(l.app)
	}
}

// recordDirect upserts the app's AppLink for a direct hook-point
// attachment. Redeploys go through hook.Link.Replace and keep the link
// identity, so the existing record just tracks the current link.
func (app *App) recordDirect(hk Hook, pt *hook.Point) {
	for _, al := range app.links {
		if al.Target == pt.Name() {
			al.link = pt.Link()
			return
		}
	}
	app.links = append(app.links, &AppLink{
		App: app.ID, Hook: hk, Target: pt.Name(), app: app, link: pt.Link(),
	})
}

// recordSlot upserts the app's AppLink for a dispatcher-slot deployment.
func (app *App) recordSlot(hk Hook, target string, disp *dispatcher, slot uint32, prog *ebpf.Program) {
	for _, al := range app.links {
		if al.disp == disp {
			if al.prog != nil && al.prog != prog {
				st := al.prog.Stats()
				al.priorRuns += st.Runs
				al.priorFaults += st.Faults
			}
			al.prog, al.slot = prog, slot
			return
		}
	}
	app.links = append(app.links, &AppLink{
		App: app.ID, Hook: hk, Target: target, app: app,
		disp: disp, slot: slot, prog: prog,
	})
}

// LinkInfo is the wire form of one live attachment (HostSnapshot.Links).
type LinkInfo struct {
	App     uint32 `json:"app"`
	Hook    string `json:"hook"`
	Target  string `json:"target"`
	Program string `json:"program"`
	Runs    uint64 `json:"runs"`
	Faults  uint64 `json:"faults"`
	// Insns and Hits describe the program generation now installed: the
	// instructions it executed and how often each slot ran (Σ Hits =
	// Insns). Runs spans every generation the link held. One app's Socket
	// Select ports share one program, so each of those links reports its
	// totals. A userspace policy has neither.
	Insns uint64   `json:"insns"`
	Hits  []uint64 `json:"hits,omitempty"`
	// Quarantined marks a deployment detached by the fault watchdog; the
	// layer serves kernel defaults until an operator unquarantines.
	Quarantined bool `json:"quarantined,omitempty"`
}

// Links enumerates every live deployment across all apps, ordered by app
// id then deployment order (deterministic for tests and tooling). It is the
// one listing of a host's deployments, which the snapshot op carries.
func (d *Daemon) Links() []LinkInfo {
	var out []LinkInfo
	for _, app := range d.appsByID() {
		for _, al := range app.links {
			li := LinkInfo{
				App: al.App, Hook: string(al.Hook), Target: al.Target,
				Program: al.Label(), Runs: al.Runs(), Faults: al.Faults(),
				Quarantined: app.quarantined[al.Hook],
			}
			if prog := al.program(); prog != nil {
				li.Insns, li.Hits = prog.Stats().InsnsExecuted, prog.Hits()
			}
			out = append(out, li)
		}
	}
	return out
}

// DetachApp detaches the app's deployments at one hook only, leaving
// maps, other hooks, and the ghOSt agent untouched: the layer falls back
// to its kernel default and the app may redeploy immediately (unlike
// Quarantine, nothing is barred). The cluster control plane uses this to
// roll an aborted canary deployment back when no previous release exists.
func (d *Daemon) DetachApp(id uint32, hk Hook) error {
	app, ok := d.apps[id]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", id)
	}
	for _, al := range app.links {
		if al.Hook == hk {
			al.detach()
		}
	}
	return nil
}

// RevokeApp tears down every one of the app's deployments across all
// layers: direct links detach (the layer falls back to its default —
// hash reuseport, LBA striping, an idle enclave) and dispatcher slots
// clear (the root dispatcher PASSes the app's packets to RSS). The
// app's pinned maps are unlinked from the sysfs namespace and its ghOSt
// agent is quiesced — a revoked app must leave nothing reachable or
// running, not just empty hook slots. The app stays registered; it can
// redeploy later (the enclave is reused, maps are re-created and
// re-pinned fresh).
func (d *Daemon) RevokeApp(id uint32) error {
	app, ok := d.apps[id]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", id)
	}
	for _, al := range app.links {
		al.detach()
	}
	app.links = nil
	// Unpin everything under the app's pin directory. Unpin is owner-only,
	// so the call is made as the app's UID; the paths came from our own
	// Pin calls, so failures are daemon bugs.
	for _, path := range d.pins.List(fmt.Sprintf("/syrup/%d/", id)) {
		if err := d.pins.Unpin(path, app.UID); err != nil {
			return fmt.Errorf("syrupd: revoke app %d: %w", id, err)
		}
	}
	app.maps = make(map[string]*ebpf.Map)
	// Quiesce the agent: its enclave reservations stay (kernel CPUs cannot
	// be re-reserved), but no message is processed and no placement
	// commits until a new thread policy deploys.
	if app.agent != nil {
		app.agent.Stop()
	}
	return nil
}
