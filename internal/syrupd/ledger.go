package syrupd

import (
	"fmt"
	"slices"
	"strings"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/metrics"
)

// The host's ledger: the one enumeration of what its layers count, the one
// definition of what it dropped, and the conservation check over both and
// over its programs' instruction counts.

// Counters is the one list of this host's counters, sorted by name. Each
// layer appends the rows it owns (nic_*, netstack_*, storage_*,
// ghost_*_app<N>, kernel_switches); the daemon adds every hook point's
// ebpf_hook_runs_<point> / ebpf_hook_faults_<point> and their
// ebpf_hook_faults total, the engine's sim_events_scheduled / _fired /
// _canceled / _pending and syrupd_quarantines. The
// values are the owners' plain fields, so the list is per host by
// construction; like Links it is read from the event loop's goroutine.
func (d *Daemon) Counters() []metrics.CounterValue {
	points := d.stack.HookPoints([]*hook.Point{d.dev.Offload()})
	out := d.stack.AppendCounters(d.dev.AppendCounters(nil))
	if d.store != nil {
		points = append(points, d.store.SubmitHook())
		out = d.store.AppendCounters(out)
	}
	if d.machine != nil {
		out = d.machine.AppendCounters(out)
	}
	for _, app := range d.appsByID() {
		if app.agent != nil {
			points = append(points, app.agent.Hook())
			out = app.agent.AppendCounters(out)
		}
	}
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
		metrics.CounterValue{Name: "sim_events_scheduled", Value: d.host.Eng.Scheduled()},
		metrics.CounterValue{Name: "sim_events_fired", Value: d.host.Eng.Fired()},
		metrics.CounterValue{Name: "sim_events_canceled", Value: d.host.Eng.Canceled()},
		metrics.CounterValue{Name: "sim_events_pending", Value: d.host.Eng.Pending()},
		metrics.CounterValue{Name: "syrupd_quarantines", Value: d.quarantines})
	slices.SortFunc(out, func(a, b metrics.CounterValue) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Dropped is what this host dropped: its NIC's ring overflows and XDP
// drops, and every stack drop cause.
func (d *Daemon) Dropped() uint64 {
	return d.dev.Stats.DroppedRing + d.dev.Stats.DroppedByXDP + d.stack.Stats.TotalDrops()
}

// Held is what this host still holds of what its NIC received: packets in
// flight from the NIC (the softirq backlog included) and datagrams waiting
// in its sockets and late-binding queues.
func (d *Daemon) Held() uint64 { return uint64(d.dev.InflightTotal() + d.stack.Queued()) }

// Conserved checks that this host accounted for every packet its NIC
// received, reading only the rows Counters lists and the NIC's in-flight
// count (nic_inflight), every event its engine scheduled, and every
// instruction its programs executed. Four equations:
//   - nic_received = nic_dropped_ring + nic_dropped_by_xdp + nic_inflight +
//     netstack_backlog_drops + netstack_processed;
//   - netstack_processed = every drop cause past the backlog +
//     netstack_xsk_delivered + netstack_udp_delivered;
//   - sim_events_scheduled = sim_events_fired + sim_events_canceled +
//     sim_events_pending;
//   - for every program a live deployment or a dispatcher root holds,
//     Σ Hits() = Stats().InsnsExecuted: the walker counts each executed
//     slot twice, in its segment's charge and in the slot's hits.
//
// The second holds once the stack is idle, at the end of a run: a packet in
// protocol processing is processed but not yet delivered. The error names
// the equation and its terms, or the program.
func (d *Daemon) Conserved() error {
	c := map[string]uint64{"nic_inflight": uint64(d.dev.InflightTotal())}
	for _, cv := range d.Counters() {
		c[cv.Name] = cv.Value
	}
	if err := balance(c, "packets", "nic_received", "nic_dropped_ring", "nic_dropped_by_xdp", "nic_inflight",
		"netstack_backlog_drops", "netstack_processed"); err != nil {
		return err
	}
	if err := balance(c, "packets", "netstack_processed", "netstack_socket_drops", "netstack_policy_drops",
		"netstack_no_executor_drops", "netstack_no_group_drops", "netstack_xsk_drops",
		"netstack_xsk_delivered", "netstack_udp_delivered"); err != nil {
		return err
	}
	if err := balance(c, "events", "sim_events_scheduled", "sim_events_fired", "sim_events_canceled", "sim_events_pending"); err != nil {
		return err
	}
	var progs []*ebpf.Program
	for _, app := range d.appsByID() {
		for _, l := range app.links {
			progs = append(progs, l.Program())
		}
	}
	for _, hk := range []Hook{HookCPURedirect, HookXDPDrv, HookXDPSkb, HookXDPOffload} {
		if disp := d.dispatch[hk]; disp != nil {
			progs = append(progs, disp.root)
		}
	}
	for _, p := range progs {
		if p == nil {
			continue
		}
		var hits uint64
		for _, h := range p.Hits() {
			hits += h
		}
		if insns := p.Stats().InsnsExecuted; hits != insns {
			return fmt.Errorf("instructions not conserved: %s: hits sum to %d != insns executed %d", p.Name(), hits, insns)
		}
	}
	return nil
}

// balance checks c[lhs] = Σ c[rhs], an equation over what (its error's
// noun).
func balance(c map[string]uint64, what, lhs string, rhs ...string) error {
	for _, name := range append([]string{lhs}, rhs...) {
		if _, ok := c[name]; !ok {
			return fmt.Errorf("conservation reads %s, which the host does not list", name)
		}
	}
	var sum uint64
	terms := make([]string, len(rhs))
	for i, name := range rhs {
		sum += c[name]
		terms[i] = fmt.Sprintf("%s %d", name, c[name])
	}
	if c[lhs] != sum {
		return fmt.Errorf("%s not conserved: %s %d != %s (= %d)", what, lhs, c[lhs], strings.Join(terms, " + "), sum)
	}
	return nil
}
