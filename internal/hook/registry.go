package hook

import (
	"fmt"
	"strings"
)

// Kind names a hook point class (paper Fig. 4). The string value is the
// wire name used by syrupd's control protocol and the public API.
type Kind string

// The hook kinds, in Fig. 4 order (top of the stack first). Storage is the
// §6.1 extension; it is a first-class hook here because the framework is
// what makes extending the abstraction to a new layer a one-edit change.
const (
	ThreadSched  Kind = "thread_sched"
	SocketSelect Kind = "socket_select"
	CPURedirect  Kind = "cpu_redirect"
	XDPSkb       Kind = "xdp_skb"
	XDPDrv       Kind = "xdp_drv"
	XDPOffload   Kind = "xdp_offload"
	Storage      Kind = "storage"
)

// Info describes one hook kind for registries, docs, and CLIs.
type Info struct {
	Kind     Kind
	Input    string // what the matching function sees
	Executor string // what an index verdict selects
	Where    string // where the program (or userspace policy) runs
}

// hooks is the single source of truth for the hook set: syrupd's ParseHook,
// the README's hook table, and layer registration all derive from it, so
// adding a hook point is one edit here.
var hooks = []Info{
	{ThreadSched, "thread (state-change msg)", "core", "ghOSt agent (userspace policy)"},
	{SocketSelect, "UDP datagram", "socket in reuseport group", "eBPF at protocol-stack delivery"},
	{CPURedirect, "packet", "core (softirq)", "eBPF after driver RX"},
	{XDPSkb, "packet", "AF_XDP socket", "eBPF after SKB allocation (no zero-copy)"},
	{XDPDrv, "packet", "AF_XDP socket", "eBPF before SKB allocation (zero-copy)"},
	{XDPOffload, "packet", "NIC RX queue", "eBPF on the NIC engine"},
	{Storage, "IO request", "NVMe submission queue", "eBPF at device submit"},
}

// Hooks returns the registered hook set in Fig. 4 order. The slice is a
// copy; callers may reorder it freely.
func Hooks() []Info {
	out := make([]Info, len(hooks))
	copy(out, hooks)
	return out
}

// Parse validates a hook name against the registry.
func Parse(s string) (Kind, error) {
	for _, h := range hooks {
		if string(h.Kind) == s {
			return h.Kind, nil
		}
	}
	return "", fmt.Errorf("hook: unknown hook %q (have %s)", s, strings.Join(Names(), ", "))
}

// Names lists the hook names in registry order.
func Names() []string {
	out := make([]string, len(hooks))
	for i, h := range hooks {
		out[i] = string(h.Kind)
	}
	return out
}
