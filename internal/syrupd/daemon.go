// Package syrupd implements the system-wide Syrup daemon (§3.5, §4.3): it
// compiles and verifies policy files, enforces cross-application isolation,
// and deploys policies into hooks across the stack.
//
// Isolation works exactly as in the paper. The Socket Select hook attaches
// per reuseport group, so a policy structurally sees only its own port's
// datagrams. The device-wide hooks (XDP, CPU Redirect, offload) get a
// trusted root dispatcher generated by the daemon: it matches each packet's
// destination port in a map and tail-calls the owning application's policy
// through a PROG_ARRAY — a packet for an unclaimed port just PASSes.
package syrupd

import (
	"cmp"
	"fmt"
	"slices"

	"syrup/internal/adapt"
	"syrup/internal/ebpf"
	"syrup/internal/ghost"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/storage"
)

// Hook names a deployment point (paper Fig. 4). It is the hook registry's
// Kind: syrupd adds no hook names of its own.
type Hook = hook.Kind

// Supported hooks, re-exported from the registry.
const (
	HookSocketSelect = hook.SocketSelect
	HookCPURedirect  = hook.CPURedirect
	HookXDPDrv       = hook.XDPDrv
	HookXDPSkb       = hook.XDPSkb
	HookXDPOffload   = hook.XDPOffload
	HookThreadSched  = hook.ThreadSched
	HookStorage      = hook.Storage
)

// ParseHook validates a hook name against the shared registry, so the
// control protocol accepts exactly the hooks the framework registers.
func ParseHook(s string) (Hook, error) { return hook.Parse(s) }

// App is one registered application/tenant.
type App struct {
	ID    uint32
	UID   uint32
	Ports []uint16
	// maps are the app's named maps, shared across its policies and its
	// userspace (the paper's Map abstraction, pinned under /syrup/<app>/).
	maps map[string]*ebpf.Map
	// agent is the app's ghOSt agent once a thread policy is deployed.
	agent *ghost.Agent
	// links are the app's live deployments, at most one per hook.
	links []*AppLink
	// quarantined holds the deployments the fault watchdog closed, by
	// hook; deploys there are refused until an operator unquarantines.
	quarantined map[Hook]*AppLink
}

// Maps returns the app's named maps.
func (a *App) Maps() map[string]*ebpf.Map { return a.maps }

// Daemon is syrupd.
type Daemon struct {
	// host is the host the daemon manages: its engine, the tracer and
	// chaos plan the ghOSt agents and storage devices it creates are built
	// on, and the telemetry sampler the ops and the adapt controller read.
	host    *hook.Host
	stack   *netstack.Stack
	dev     *nic.NIC
	machine *kernel.Machine
	store   *storage.Device
	pins    *ebpf.PinRegistry

	apps      map[uint32]*App
	portOwner map[uint16]uint32
	dispatch  map[Hook]*dispatcher

	// Quarantine events on this host, published by Counters as
	// syrupd_quarantines.
	quarantines uint64

	// watchdog records that EnableQuarantine started the fault scan.
	watchdog bool

	// adapt is the closed-loop controller once EnableAdapt runs
	// (adapt.go).
	adapt *adapt.Controller
}

// New creates a daemon managing host h's components. machine may be nil
// when thread scheduling is not used.
func New(h *hook.Host, dev *nic.NIC, stack *netstack.Stack, machine *kernel.Machine) *Daemon {
	return &Daemon{
		host:      h,
		stack:     stack,
		dev:       dev,
		machine:   machine,
		pins:      ebpf.NewPinRegistry(),
		apps:      make(map[uint32]*App),
		portOwner: make(map[uint16]uint32),
		dispatch:  make(map[Hook]*dispatcher),
	}
}

// AttachStorage builds a storage device on the daemon's host and puts it
// under the daemon's management, so apps can deploy to the storage submit
// hook (the §6.1 extension). The device shares the host's tracer and chaos
// plan.
func (d *Daemon) AttachStorage(cfg storage.Config) *storage.Device {
	d.store = storage.NewDevice(d.host, cfg)
	return d.store
}

// RegisterApp claims ports for an application. Claiming a port owned by
// another app fails — the root of Syrup's input isolation.
func (d *Daemon) RegisterApp(id, uid uint32, ports ...uint16) (*App, error) {
	if _, dup := d.apps[id]; dup {
		return nil, fmt.Errorf("syrupd: app %d already registered", id)
	}
	for _, p := range ports {
		if owner, taken := d.portOwner[p]; taken {
			return nil, fmt.Errorf("syrupd: port %d already owned by app %d", p, owner)
		}
	}
	app := &App{
		ID: id, UID: uid, Ports: ports,
		maps:        make(map[string]*ebpf.Map),
		quarantined: make(map[Hook]*AppLink),
	}
	for _, p := range ports {
		d.portOwner[p] = id
	}
	d.apps[id] = app
	return app, nil
}

// App looks up a registered application.
func (d *Daemon) App(id uint32) *App { return d.apps[id] }

// appsByID returns the registered apps by ascending id — the fixed order
// every listing and scan walks them in.
func (d *Daemon) appsByID() []*App {
	apps := make([]*App, 0, len(d.apps))
	for _, app := range d.apps {
		apps = append(apps, app)
	}
	slices.SortFunc(apps, func(a, b *App) int { return cmp.Compare(a.ID, b.ID) })
	return apps
}

// Verify is the half of a deploy that reads no host: it compiles source
// (a .syr policy file) with deploy-time defines and verifies it as app's
// policy at hook. It runs on any goroutine, and one result deploys on any
// number of hosts (Deploy).
func Verify(appID uint32, hk Hook, source string, defines map[string]int64) (*ebpf.Verified, error) {
	f, err := ebpf.Assemble(source, defines)
	if err != nil {
		return nil, fmt.Errorf("syrupd: app %d: %w", appID, err)
	}
	return ebpf.Verify(fmt.Sprintf("app%d-%s", appID, hk), f)
}

// DeployPolicy is the paper's syr_deploy_policy: Verify source, then
// Deploy it. It returns the app's deployment at hook: a redeploy
// live-replaces the program and returns the same one.
func (d *Daemon) DeployPolicy(appID uint32, hk Hook, source string, defines map[string]int64) (*AppLink, error) {
	v, err := Verify(appID, hk, source, defines)
	return d.deploy(appID, hk, v, err)
}

// Deploy installs a policy Verify built for app and hook on this host: it
// binds the program to the app's maps by name, installs it at hook (behind
// the isolation dispatcher at device-wide hooks) and pins the new maps.
func (d *Daemon) Deploy(appID uint32, hk Hook, v *ebpf.Verified) (*AppLink, error) {
	return d.deploy(appID, hk, v, nil)
}

// deploy is Deploy for a policy whose verification failed with verr: a
// deploy that also fails the host's own checks reports the host's error.
func (d *Daemon) deploy(appID uint32, hk Hook, v *ebpf.Verified, verr error) (*AppLink, error) {
	app, ok := d.apps[appID]
	if !ok {
		return nil, fmt.Errorf("syrupd: unknown app %d", appID)
	}
	if hk == HookThreadSched {
		return nil, fmt.Errorf("syrupd: thread policies deploy via DeployThreadPolicy (they run in userspace)")
	}
	if app.quarantined[hk] != nil {
		return nil, fmt.Errorf("syrupd: app %d is quarantined at %s; unquarantine first", appID, hk)
	}
	if verr != nil {
		return nil, verr
	}
	prog, maps, err := v.Bind(app.maps)
	if err != nil {
		return nil, fmt.Errorf("syrupd: app %d: %w", appID, err)
	}
	l, err := d.install(app, hk, prog)
	if err != nil {
		return nil, err
	}
	// Pin new maps for the app's userspace once the install has succeeded.
	for mname, m := range maps {
		if _, existed := app.maps[mname]; existed {
			continue
		}
		app.maps[mname] = m
		path := fmt.Sprintf("/syrup/%d/%s", appID, mname)
		if err := d.pins.Pin(path, m, app.UID, 0o600); err != nil {
			return nil, err
		}
	}
	l.Maps, l.Verified = maps, v
	return l, nil
}

// DeployBuiltin deploys one of the named built-in policies.
func (d *Daemon) DeployBuiltin(appID uint32, hk Hook, name string, defines map[string]int64) (*AppLink, error) {
	src, err := policy.Source(name)
	if err != nil {
		return nil, err
	}
	return d.DeployPolicy(appID, hk, src, defines)
}

// install puts prog in at hk as the app's deployment there: the first
// install creates the deployment, a later one live-replaces its program.
func (d *Daemon) install(app *App, hk Hook, prog *ebpf.Program) (*AppLink, error) {
	l := app.Link(hk)
	switch hk {
	case HookSocketSelect, HookStorage:
		pts, err := d.hookPoints(app, hk)
		if err != nil {
			return nil, err
		}
		links := make(points, len(pts))
		for i, pt := range pts {
			pt.Set(prog) // attach, or live-replace an earlier deployment
			links[i] = pt.Link()
		}
		if l == nil {
			return app.add(hk, links), nil
		}
		l.att = links // the same links, plus any group bound since
		return l, nil
	case HookCPURedirect, HookXDPDrv, HookXDPSkb, HookXDPOffload:
		if l != nil {
			l.att.(*slot).set(prog)
			return l, nil
		}
		disp, err := d.dispatcher(hk)
		if err != nil {
			return nil, err
		}
		s, err := disp.claim(app)
		if err != nil {
			return nil, err
		}
		s.set(prog)
		return app.add(hk, s), nil
	}
	return nil, fmt.Errorf("syrupd: cannot install at hook %q", hk)
}

// hookPoints are the hook points a deployment of app at hk owns: the
// reuseport group of every port the app has bound (structurally isolated:
// each sees only its own port's datagrams), or the one storage submit
// hook, which only one app may hold.
func (d *Daemon) hookPoints(app *App, hk Hook) ([]*hook.Point, error) {
	if hk == HookStorage {
		if d.store == nil {
			return nil, fmt.Errorf("syrupd: host has no storage device attached")
		}
		for _, other := range d.apps {
			if other != app && other.Link(HookStorage) != nil {
				return nil, fmt.Errorf("syrupd: storage hook already owned by app %d", other.ID)
			}
		}
		return []*hook.Point{d.store.SubmitHook()}, nil
	}
	var pts []*hook.Point
	for _, port := range app.Ports {
		if g := d.stack.LookupGroup(port); g != nil {
			if g.App != app.ID {
				return nil, fmt.Errorf("syrupd: group for port %d belongs to app %d", port, g.App)
			}
			pts = append(pts, g.Hook())
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("syrupd: app %d has no bound reuseport groups to attach to", app.ID)
	}
	return pts, nil
}

// DeployThreadPolicy stands up the app's ghOSt agent (if needed) with the
// given enclave and installs the userspace thread policy. It mirrors the
// paper's workflow: the policy is user code, but it runs in the app's own
// ghOSt process, and ghOSt guarantees it only sees the app's threads.
func (d *Daemon) DeployThreadPolicy(appID uint32, pol ghost.Policy, agentCPU kernel.CPUID, workers []kernel.CPUID) (*ghost.Agent, error) {
	app, ok := d.apps[appID]
	if !ok {
		return nil, fmt.Errorf("syrupd: unknown app %d", appID)
	}
	if d.machine == nil {
		return nil, fmt.Errorf("syrupd: host has no thread scheduler (machine not wired)")
	}
	if app.quarantined[HookThreadSched] != nil {
		return nil, fmt.Errorf("syrupd: app %d is quarantined at %s; unquarantine first", appID, HookThreadSched)
	}
	if app.agent != nil {
		// The enclave exists. A live policy means a duplicate deploy; an
		// empty hook (after RevokeApp) accepts a new policy in place, and
		// the quiesced agent resumes with it.
		if app.agent.Hook().Attached() {
			return nil, fmt.Errorf("syrupd: app %d already has a thread policy", appID)
		}
		if _, err := app.agent.Hook().AttachUser(pol, fmt.Sprintf("app%d-policy", appID)); err != nil {
			return nil, err
		}
		app.agent.Resume()
	} else {
		app.agent = ghost.NewAgent(d.host, d.machine, appID, pol, agentCPU, workers)
	}
	app.add(HookThreadSched, points{app.agent.Hook().Link()})
	return app.agent, nil
}

// CreateMap creates and pins a named map for an app outside any policy
// file (e.g., a userspace-only coordination map). Policies that later
// declare the same name share it.
func (d *Daemon) CreateMap(appID uint32, spec ebpf.MapSpec) (*ebpf.Map, error) {
	app, ok := d.apps[appID]
	if !ok {
		return nil, fmt.Errorf("syrupd: unknown app %d", appID)
	}
	if _, dup := app.maps[spec.Name]; dup {
		return nil, fmt.Errorf("syrupd: app %d already has map %q", appID, spec.Name)
	}
	m, err := ebpf.NewMap(spec)
	if err != nil {
		return nil, err
	}
	app.maps[spec.Name] = m
	path := fmt.Sprintf("/syrup/%d/%s", appID, spec.Name)
	if err := d.pins.Pin(path, m, app.UID, 0o600); err != nil {
		return nil, err
	}
	return m, nil
}

// OpenMap resolves a pinned map path with permission checks — the paper's
// syr_map_open.
func (d *Daemon) OpenMap(path string, uid uint32, write bool) (*ebpf.Map, error) {
	return d.pins.Open(path, uid, write)
}
