package syrupd

import (
	"fmt"
	"slices"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
)

// AppLink is one app's deployment at one hook — the daemon-side bpf_link,
// and what DeployPolicy returns. A redeploy at the hook live-replaces its
// program and returns the same AppLink; Close is its one teardown.
type AppLink struct {
	App  uint32
	Hook Hook
	// Maps are the installed policy's named maps, shared by name with the
	// app's other deployments (new ones pinned under /syrup/<app>/).
	Maps map[string]*ebpf.Map
	// Verified is the installed policy as verified, before this host bound
	// it; nil for a userspace thread policy.
	Verified *ebpf.Verified

	app *App
	// att is where the deployment is installed, chosen once at install.
	att attachment
	// seen is the deployment's fault count at the watchdog's last scan.
	seen uint64
}

// attachment is where a deployment is installed: the hook points it owns
// (points) or a slot in a device-wide hook's isolation dispatcher (slot).
type attachment interface {
	// program is the generation now installed; nil for a userspace policy.
	program() *ebpf.Program
	label() string
	// stats are the deployment's runs and faults over every generation it
	// installed.
	stats() (runs, faults uint64)
	target() string
	// close uninstalls it; the layer falls back to its default path.
	close()
}

// Program is the program now installed, or nil for a userspace thread
// policy.
func (l *AppLink) Program() *ebpf.Program { return l.att.program() }

// Close tears the deployment down — the layer falls back to its default
// path and a dispatcher slot is freed for the next install — and drops it
// from Links. Closing a closed deployment does nothing.
func (l *AppLink) Close() {
	links := l.app.links
	i := slices.Index(links, l)
	if i < 0 {
		return
	}
	// A fresh array: a caller ranging over the old one while closing sees
	// every deployment once.
	l.app.links = append(links[:i:i], links[i+1:]...)
	l.att.close()
}

// Link is the app's live deployment at hk, or nil.
func (app *App) Link(hk Hook) *AppLink {
	for _, l := range app.links {
		if l.Hook == hk {
			return l
		}
	}
	return nil
}

// add records a new deployment of app at hk.
func (app *App) add(hk Hook, att attachment) *AppLink {
	l := &AppLink{App: app.ID, Hook: hk, app: app, att: att}
	app.links = append(app.links, l)
	return l
}

// points is a deployment that owns hook points — Socket Select's
// reuseport groups, one per port the app claims; the storage submit hook;
// a ghOSt agent's thread hook — through one hook.Link each. A link counts
// its runs across Replace, so the deployment's are the sum.
type points []*hook.Link

func (p points) program() *ebpf.Program { return p[0].Program() }
func (p points) label() string          { return p[0].Label() }

func (p points) stats() (runs, faults uint64) {
	for _, l := range p {
		st := l.Stats()
		runs, faults = runs+st.Runs, faults+st.Faults
	}
	return runs, faults
}

func (p points) target() string {
	s := p[0].Point().Name()
	for _, l := range p[1:] {
		s += "," + l.Point().Name()
	}
	return s
}

func (p points) close() {
	for _, l := range p {
		l.Detach()
	}
}

// LinkInfo is the wire form of one deployment (HostSnapshot.Links).
type LinkInfo struct {
	App     uint32 `json:"app"`
	Hook    string `json:"hook"`
	Target  string `json:"target"`
	Program string `json:"program"`
	Runs    uint64 `json:"runs"`
	Faults  uint64 `json:"faults"`
	// Insns and Hits describe the program generation now installed: the
	// instructions it executed and how often each slot ran (Σ Hits =
	// Insns). Runs spans every generation the deployment held. A userspace
	// policy has neither.
	Insns uint64   `json:"insns"`
	Hits  []uint64 `json:"hits,omitempty"`
	// Quarantined marks a deployment the fault watchdog closed; the layer
	// serves kernel defaults until an operator unquarantines.
	Quarantined bool `json:"quarantined,omitempty"`
}

func (l *AppLink) info(quarantined bool) LinkInfo {
	runs, faults := l.att.stats()
	li := LinkInfo{
		App: l.App, Hook: string(l.Hook), Target: l.att.target(), Program: l.att.label(),
		Runs: runs, Faults: faults, Quarantined: quarantined,
	}
	if prog := l.Program(); prog != nil {
		li.Insns, li.Hits = prog.Stats().InsnsExecuted, prog.Hits()
	}
	return li
}

// Links enumerates every deployment, one per (app, hook): by app id, each
// app's live deployments in deployment order and then its quarantined
// ones in hook order (deterministic for tests and tooling). It is the one
// listing of a host's deployments, which the snapshot op carries.
func (d *Daemon) Links() []LinkInfo {
	var out []LinkInfo
	for _, app := range d.appsByID() {
		for _, l := range app.links {
			out = append(out, l.info(false))
		}
		if len(app.quarantined) == 0 {
			continue
		}
		for _, hi := range hook.Hooks() {
			if l := app.quarantined[hi.Kind]; l != nil {
				out = append(out, l.info(true))
			}
		}
	}
	return out
}

// DetachApp closes the app's deployment at one hook only, leaving maps,
// other hooks, and the ghOSt agent untouched: the layer falls back to its
// kernel default and the app may redeploy immediately (unlike Quarantine,
// nothing is barred). The cluster control plane uses this to roll an
// aborted canary deployment back when no previous release exists.
func (d *Daemon) DetachApp(id uint32, hk Hook) error {
	app, ok := d.apps[id]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", id)
	}
	if l := app.Link(hk); l != nil {
		l.Close()
	}
	return nil
}

// RevokeApp closes every one of the app's deployments across all layers:
// direct links detach (the layer falls back to its default — hash
// reuseport, LBA striping, an idle enclave) and dispatcher slots clear
// (the root dispatcher PASSes the app's packets to RSS). The app's pinned
// maps are unlinked from the sysfs namespace and its ghOSt agent is
// quiesced — a revoked app must leave nothing reachable or running, not
// just empty hook slots. The app stays registered; it can redeploy later
// (the enclave is reused, maps are re-created and re-pinned fresh).
func (d *Daemon) RevokeApp(id uint32) error {
	app, ok := d.apps[id]
	if !ok {
		return fmt.Errorf("syrupd: unknown app %d", id)
	}
	for _, l := range app.links {
		l.Close()
	}
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
