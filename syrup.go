// Package syrup is the public API of the Syrup reproduction: user-defined
// scheduling across the stack (SOSP 2021). It mirrors the paper's Table-1
// API — deploy a policy file to a hook, then talk to it through Maps —
// on top of a deterministic simulated end-host (NIC, kernel network stack,
// CPUs, CFS, ghOSt).
//
// A minimal session looks like:
//
//	host := syrup.NewHost(syrup.HostConfig{NumCPUs: 6, NICQueues: 6})
//	app, _ := host.RegisterApp(1, 1000, 9000)
//	sock, idx := app.NewUDPSocket(9000, "worker-0")
//	_, _ = app.DeployPolicy(policySource, syrup.HookSocketSelect, nil)
//	m, _ := app.MapOpen("/syrup/1/rr_state")
//	v, _ := m.LookupElem(0)
//
// See the examples directory for complete programs, and internal/experiments
// for the harness that regenerates every figure and table in the paper.
package syrup

import (
	"fmt"
	"io"
	"os"

	"syrup/internal/ebpf"
	"syrup/internal/faults"
	"syrup/internal/ghost"
	"syrup/internal/hook"
	"syrup/internal/kernel"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/sim"
	"syrup/internal/storage"
	"syrup/internal/syrupd"
	"syrup/internal/trace"
)

// Hook identifies a deployment point across the stack (paper Fig. 4).
type Hook = syrupd.Hook

// The supported hooks.
const (
	HookSocketSelect = syrupd.HookSocketSelect
	HookCPURedirect  = syrupd.HookCPURedirect
	HookXDPDrv       = syrupd.HookXDPDrv
	HookXDPSkb       = syrupd.HookXDPSkb
	HookXDPOffload   = syrupd.HookXDPOffload
	HookThreadSched  = syrupd.HookThreadSched
	HookStorage      = syrupd.HookStorage
)

// Hooks describes every registered hook point (Fig. 4 order); the README's
// hook table is generated from the same registry.
func Hooks() []hook.Info { return hook.Hooks() }

// Time is a virtual-time instant/duration in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Verdict sentinels a schedule() program may return instead of an executor
// index.
const (
	PASS = ebpf.VerdictPass
	DROP = ebpf.VerdictDrop
)

// HostConfig configures a simulated end-host.
type HostConfig struct {
	// Seed drives all simulated randomness; runs with equal seeds are
	// bit-identical. Zero means seed 1.
	Seed uint64
	// HostID identifies this host within a cluster (internal/cluster
	// derives one per member); standalone hosts keep 0.
	HostID int
	// Name labels the host in cluster reports and defaults to
	// "host-<HostID>".
	Name string
	// NumCPUs is the application core count (0 = no thread scheduler).
	NumCPUs int
	// NICQueues is the RX queue count (0 = 1).
	NICQueues int
	// Deprecated: Batch has no effect; kept only until a benchmark-archetype PR stops setting it.
	Batch int
	// Trace, when set, threads the request tracer through every layer
	// (NIC, netstack, hook points, ghOSt agents) at construction.
	// Tracing is off by default; the recorder never schedules events or
	// consumes randomness, so traced runs are behavior-identical.
	Trace *trace.Recorder
	// Faults, when set, compiles the chaos plan against Seed and arms
	// every layer's injection sites (NIC ring, offload, SKB allocation,
	// eBPF helpers, socket select, ghOSt agents). The injector draws from
	// its own per-site PRNG streams and schedules no events, so hosts
	// built without a plan stay bit-identical.
	Faults *faults.Plan
	// Quarantine, when non-nil, arms syrupd's fault watchdog with the
	// given thresholds (zero fields take defaults).
	Quarantine *syrupd.QuarantineConfig
	// Telemetry, when set, builds the host's time-series sampler
	// (internal/obs) and attaches it to the engine's passive sampling
	// hook: datapath gauges (softirq backlog, NIC inflight, runnable ghOSt
	// threads, quarantined links) are sampled every Period. The hook
	// schedules no events and draws no randomness, so runs are
	// bit-identical with telemetry on or off (gated by make obs-diff). Off
	// by default.
	Telemetry *obs.Config
	// PolicyProfile deploys this host's policies with per-instruction
	// profiling (the per-host form of ebpf.LoadOptions.Profile).
	PolicyProfile bool
}

// TraceRecorder is the cross-stack span recorder (see internal/trace).
type TraceRecorder = trace.Recorder

// TraceSpan is one recorded lifecycle span.
type TraceSpan = trace.Span

// NewTraceRecorder creates an enabled recorder whose ring holds
// capacity spans (<= 0 takes the default).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.New(capacity) }

// WriteChromeTrace renders spans as Chrome trace_event JSON for
// chrome://tracing / Perfetto.
func WriteChromeTrace(w io.Writer, spans []TraceSpan) error {
	return trace.WriteChrome(w, spans)
}

// maxParallelism bounds the per-host core and queue counts; the simulator
// models end hosts, not whole racks, and a wildly large value is almost
// certainly a units mistake (e.g. passing a load figure as NumCPUs).
const maxParallelism = 4096

// Normalize validates cfg and resolves every implicit default in one
// place: the seed, the host name, and the NIC queue count. It is the
// single config seam — NewHost, TryNewHost, and the cluster layer all
// normalize through here, so a nonsensical config fails the same way
// everywhere.
func (cfg HostConfig) Normalize() (HostConfig, error) {
	switch {
	case cfg.NumCPUs < 0:
		return cfg, fmt.Errorf("syrup: NumCPUs %d is negative", cfg.NumCPUs)
	case cfg.NumCPUs > maxParallelism:
		return cfg, fmt.Errorf("syrup: NumCPUs %d exceeds the per-host maximum %d", cfg.NumCPUs, maxParallelism)
	case cfg.NICQueues < 0:
		return cfg, fmt.Errorf("syrup: NICQueues %d is negative", cfg.NICQueues)
	case cfg.NICQueues > maxParallelism:
		return cfg, fmt.Errorf("syrup: NICQueues %d exceeds the per-host maximum %d", cfg.NICQueues, maxParallelism)
	case cfg.HostID < 0:
		return cfg, fmt.Errorf("syrup: HostID %d is negative", cfg.HostID)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("host-%d", cfg.HostID)
	}
	if cfg.NICQueues == 0 {
		cfg.NICQueues = 1
	}
	return cfg, nil
}

// Host is a simulated end-host running syrupd.
type Host struct {
	// ID and Name carry the host's cluster identity (HostConfig.HostID /
	// HostConfig.Name); standalone hosts are host 0.
	ID   int
	Name string

	Eng     *sim.Engine
	Machine *kernel.Machine // nil when NumCPUs == 0
	NIC     *nic.NIC
	Stack   *netstack.Stack
	Daemon  *syrupd.Daemon
	// Tracer is the request tracer wired at construction (nil unless
	// HostConfig.Trace was set).
	Tracer *trace.Recorder
	// Faults is the compiled chaos injector (nil unless HostConfig.Faults
	// was set); Faults.Injected(site) counts one site's injections.
	Faults *faults.Injector
	// Obs is the telemetry sampler wired at construction (nil unless
	// HostConfig.Telemetry was set). Register additional gauges, rates,
	// and histograms on it before the run starts; its store backs the
	// syrupd timeseries/metrics ops, and its histograms are the ones the
	// stats and metrics ops summarize.
	Obs *obs.Sampler
}

// NewHost builds a host: NIC wired to the kernel network stack, CPUs under
// CFS, and a syrupd instance managing it all. It panics on an invalid
// config; TryNewHost reports the error instead.
func NewHost(cfg HostConfig) *Host {
	h, err := TryNewHost(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// TryNewHost is NewHost with the config error surfaced — the constructor
// the cluster layer and other programmatic callers use.
func TryNewHost(cfg HostConfig) (*Host, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	dev, stack := netstack.Wire(eng, nic.Config{Queues: cfg.NICQueues}, netstack.Config{})
	var machine *kernel.Machine
	if cfg.NumCPUs > 0 {
		machine = kernel.New(eng, kernel.Config{NumCPUs: cfg.NumCPUs})
	}
	h := &Host{
		ID:      cfg.HostID,
		Name:    cfg.Name,
		Eng:     eng,
		Machine: machine,
		NIC:     dev,
		Stack:   stack,
		Daemon:  syrupd.New(eng, dev, stack, machine),
		Tracer:  cfg.Trace,
	}
	if cfg.Trace != nil {
		dev.SetTracer(cfg.Trace)
		stack.SetTracer(cfg.Trace)
		h.Daemon.SetTracer(cfg.Trace)
	}
	if cfg.Faults != nil {
		h.Faults = cfg.Faults.Compile(cfg.Seed, eng.Now)
		dev.SetFaults(h.Faults)
		stack.SetFaults(h.Faults)
		h.Daemon.SetFaults(h.Faults)
	}
	if cfg.Quarantine != nil {
		h.Daemon.EnableQuarantine(*cfg.Quarantine)
	}
	if cfg.PolicyProfile {
		h.Daemon.SetPolicyProfile(true)
	}
	if cfg.Telemetry != nil {
		sa := obs.NewSampler(*cfg.Telemetry)
		sa.Gauge("softirq_backlog", func() float64 { return float64(stack.SoftirqBacklog()) })
		sa.Gauge("nic_inflight", func() float64 { return float64(dev.InflightTotal()) })
		sa.Gauge("ghost_runnable", func() float64 { return float64(h.Daemon.GhostRunnable()) })
		sa.Gauge("quarantined_links", func() float64 { return float64(h.Daemon.QuarantinedCount()) })
		if cfg.Telemetry.Counters {
			sa.Counters(h.Daemon.Counters)
		}
		sa.Attach(eng)
		h.Obs = sa
		h.Daemon.SetObs(sa)
	}
	return h, nil
}

// AttachStorage puts a storage device under syrupd's management so apps
// can deploy to HookStorage (the §6.1 extension of the matching
// abstraction to IO scheduling).
func (h *Host) AttachStorage(dev *storage.Device) { h.Daemon.AttachStorage(dev) }

// Run advances virtual time until the event queue drains.
func (h *Host) Run() { h.Eng.Run() }

// RunFor advances virtual time by d.
func (h *Host) RunFor(d Time) { h.Eng.RunUntil(h.Eng.Now() + d) }

// Now reports the current virtual time.
func (h *Host) Now() Time { return h.Eng.Now() }

// App is an application's handle onto syrupd: the subject of the paper's
// Table-1 API.
type App struct {
	host *Host
	id   uint32
	uid  uint32
}

// RegisterApp introduces an application (tenant) to syrupd, claiming its
// UDP ports. Ports are the isolation boundary: policies deployed by this
// app only ever see traffic for these ports.
func (h *Host) RegisterApp(id, uid uint32, ports ...uint16) (*App, error) {
	if _, err := h.Daemon.RegisterApp(id, uid, ports...); err != nil {
		return nil, err
	}
	return &App{host: h, id: id, uid: uid}, nil
}

// ID returns the application id.
func (a *App) ID() uint32 { return a.id }

// Revoke tears down every one of the app's deployments across all layers
// (Daemon.RevokeApp): each hook falls back to its default path — RSS,
// hash-based reuseport selection, LBA striping — and the app may later
// redeploy.
func (a *App) Revoke() error { return a.host.Daemon.RevokeApp(a.id) }

// Links enumerates the app's live deployments with per-deployment run and
// fault counts.
func (a *App) Links() []syrupd.LinkInfo {
	var out []syrupd.LinkInfo
	for _, l := range a.host.Daemon.Links() {
		if l.App == a.id {
			out = append(out, l)
		}
	}
	return out
}

// Deployment describes a deployed policy.
type Deployment struct {
	// Program is the verified program now running at the hook.
	Program *ebpf.Program
	// Maps are the policy's named maps, shared with earlier deployments.
	Maps map[string]*ebpf.Map
	// SourceLines is the policy file's LoC (the paper's Table-2 metric).
	SourceLines int
}

// DeployPolicy is syr_deploy_policy: compile the .syr source, verify it,
// and install it at hook. defines inject deploy-time constants (e.g.
// NUM_THREADS), overriding the file's .const defaults.
func (a *App) DeployPolicy(source string, hook Hook, defines map[string]int64) (*Deployment, error) {
	res, err := a.host.Daemon.DeployPolicy(a.id, hook, source, defines)
	if err != nil {
		return nil, err
	}
	return &Deployment{Program: res.Program, Maps: res.Maps, SourceLines: res.SourceLines}, nil
}

// DeployPolicyFile reads a .syr file from disk and deploys it.
func (a *App) DeployPolicyFile(path string, hook Hook, defines map[string]int64) (*Deployment, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return a.DeployPolicy(string(b), hook, defines)
}

// DeployBuiltin deploys one of the library policies by name (see
// BuiltinPolicies).
func (a *App) DeployBuiltin(name string, hook Hook, defines map[string]int64) (*Deployment, error) {
	res, err := a.host.Daemon.DeployBuiltin(a.id, hook, name, defines)
	if err != nil {
		return nil, err
	}
	return &Deployment{Program: res.Program, Maps: res.Maps, SourceLines: res.SourceLines}, nil
}

// DeployThreadPolicy installs a userspace thread-scheduling policy via the
// ghOSt hook: the agent takes over agentCPU, and the app's registered
// threads run on workers under pol's control.
func (a *App) DeployThreadPolicy(pol ghost.Policy, agentCPU int, workers []int, cfg ghost.Config) (*ghost.Agent, error) {
	ws := make([]kernel.CPUID, len(workers))
	for i, w := range workers {
		ws[i] = kernel.CPUID(w)
	}
	return a.host.Daemon.DeployThreadPolicy(a.id, pol, kernel.CPUID(agentCPU), ws, cfg)
}

// NewUDPSocket binds a reuseport socket on one of the app's ports and
// registers it in the port's executor table, returning its index (the
// value a Socket Select policy returns to pick it).
func (a *App) NewUDPSocket(port uint16, label string) (*netstack.Socket, int) {
	return a.host.Stack.NewUDPSocket(port, a.id, label)
}

// RegisterXSK registers an AF_XDP socket in the app's executor table for
// an RX queue and returns its index.
func (a *App) RegisterXSK(port uint16, queue int, capacity int, label string) (*netstack.Socket, int) {
	sock := netstack.NewSocket(port, a.id, capacity, label)
	idx := a.host.Stack.RegisterXSK(port, queue, sock)
	return sock, idx
}

// CreateMap creates and pins a named map for this app ahead of any policy
// deployment; later policies declaring the same name share it.
func (a *App) CreateMap(spec ebpf.MapSpec) (*Map, error) {
	m, err := a.host.Daemon.CreateMap(a.id, spec)
	if err != nil {
		return nil, err
	}
	return &Map{m: m}, nil
}

// MapOpen is syr_map_open: resolve a pinned map path under this app's
// credentials.
func (a *App) MapOpen(path string) (*Map, error) {
	m, err := a.host.Daemon.OpenMap(path, a.uid, true)
	if err != nil {
		return nil, err
	}
	return &Map{m: m}, nil
}

// Map is a handle to a Syrup Map (the cross-layer communication channel,
// §3.4). The default value type is uint64, as in the paper.
type Map struct {
	m *ebpf.Map
}

// LookupElem is syr_map_lookup_elem for the default 32-bit-key,
// 64-bit-value shape.
func (m *Map) LookupElem(key uint32) (uint64, bool) { return m.m.LookupUint64(key) }

// UpdateElem is syr_map_update_elem.
func (m *Map) UpdateElem(key uint32, value uint64) error { return m.m.UpdateUint64(key, value) }

// AddElem atomically adds delta (two's-complement for subtraction) to the
// value at key.
func (m *Map) AddElem(key uint32, delta uint64) error { return m.m.AddUint64(key, delta) }

// Raw exposes the underlying map for advanced use (byte-typed access,
// iteration, sharing with policy loads).
func (m *Map) Raw() *ebpf.Map { return m.m }

// BuiltinPolicies lists the named policies shipped with the library: the
// paper's hash, round_robin, scan_avoid, sita, token, and mica_hash.
func BuiltinPolicies() []string { return policy.Names() }

// BuiltinSource returns a built-in policy's .syr source.
func BuiltinSource(name string) (string, error) { return policy.Source(name) }
