package syrupd

import (
	"testing"

	"syrup/internal/hook"
	"syrup/internal/netstack"
	"syrup/internal/nic"
	"syrup/internal/sim"
)

// TestConservedUnderEveryVerdict drives one seeded host to every terminal a
// received packet can reach, one cause per phase: the NIC's ring and offload
// verdicts, the softirq backlog, XDP's PASS, DROP, AF_XDP delivery, full
// AF_XDP queue and out-of-range index, CPU Redirect's DROP and out-of-range
// core, Socket Select's DROP and out-of-range index, a full socket, late
// binding and its full shared queue, and an unbound port. After every phase
// the ledger must balance, and the phase must have moved its cause's
// counter row, which shows the branch was reached. (A verdict naming a
// closed AF_XDP socket takes the out-of-range branch; nothing outside
// netstack closes a socket, so netstack's TestXDPRedirectToDeadXSK drives
// it.)
func TestConservedUnderEveryVerdict(t *testing.T) {
	// The ring is deeper than the softirq backlog (1000, netdev_max_backlog),
	// so a burst that fits the ring overflows the backlog.
	const ring = 2048
	hh := &hook.Host{Eng: sim.New(7)}
	dev, stack := netstack.Wire(hh, nic.Config{Queues: 1, RingSize: ring})
	d := New(hh, dev, stack, nil)

	// Each policy belongs to an app of its own, on a port of its own with
	// the given number of sockets.
	app := uint32(0)
	deploy := func(port uint16, hk Hook, src string, sockets int) {
		t.Helper()
		app++
		if _, err := d.RegisterApp(app, 1000+app, port); err != nil {
			t.Fatal(err)
		}
		for range sockets {
			stack.NewUDPSocket(port, app, "w")
		}
		if _, err := d.DeployPolicy(app, hk, src, nil); err != nil {
			t.Fatalf("%s on port %d: %v", hk, port, err)
		}
	}
	deploy(9101, HookXDPDrv, "r0 = PASS\nexit\n", 1)
	deploy(9102, HookXDPDrv, "r0 = DROP\nexit\n", 0)
	deploy(9103, HookXDPDrv, "r0 = 0\nexit\n", 0)
	stack.RegisterXSK(9103, 0, netstack.NewSocket(9103, app, 1, "xsk"))
	deploy(9104, HookXDPDrv, "r0 = 3\nexit\n", 0)
	deploy(9201, HookCPURedirect, "r0 = DROP\nexit\n", 0)
	deploy(9202, HookCPURedirect, "r0 = 1\nexit\n", 0) // the host has one core
	deploy(9301, HookSocketSelect, "r0 = DROP\nexit\n", 1)
	deploy(9302, HookSocketSelect, "r0 = 3\nexit\n", 1)
	deploy(9401, HookXDPOffload, "r0 = DROP\nexit\n", 0)
	deploy(9402, HookXDPOffload, "r0 = 3\nexit\n", 0) // the NIC has one queue
	// No policy on the rest: a socket as deep as the ring behind the
	// overflow bursts, a socket of the stack's SocketQueueCap, and a
	// late-binding group of depth 1.
	stack.Group(9000, 0).AddSocket(netstack.NewSocket(9000, 0, ring, "deep"))
	stack.NewUDPSocket(9501, 0, "w")
	stack.NewUDPSocket(9502, 0, "w")
	stack.LookupGroup(9502).EnableLateBinding(1)

	phases := []struct {
		cause string
		port  uint16
		burst int
		row   string
	}{
		{"ring overflow", 9000, 2 * ring, "nic_dropped_ring"}, // ring fit
		{"backlog overflow", 9000, ring, "netstack_backlog_drops"},
		{"offload DROP", 9401, 1, "nic_dropped_by_xdp"},
		{"offload out-of-range queue", 9402, 1, "nic_dropped_by_xdp"},
		{"XDP PASS", 9101, 1, "netstack_udp_delivered"},
		{"XDP DROP", 9102, 1, "netstack_xsk_drops"},
		{"AF_XDP delivery", 9103, 1, "netstack_xsk_delivered"},
		{"full AF_XDP queue", 9103, 1, "netstack_xsk_drops"},
		{"XDP out-of-range index", 9104, 1, "netstack_no_executor_drops"},
		{"CPU Redirect DROP", 9201, 1, "netstack_policy_drops"},
		{"CPU Redirect out-of-range core", 9202, 1, "netstack_no_executor_drops"},
		{"Socket Select DROP", 9301, 1, "netstack_policy_drops"},
		{"Socket Select out-of-range index", 9302, 1, "netstack_no_executor_drops"},
		{"socket overflow", 9501, stack.SocketQueueCap() + 1, "netstack_socket_drops"},
		{"late binding", 9502, 1, "netstack_udp_delivered"},
		{"late-binding overflow", 9502, 1, "netstack_socket_drops"},
		{"unbound port", 9999, 1, "netstack_no_group_drops"},
	}
	counters := func() map[string]uint64 {
		c := map[string]uint64{}
		for _, cv := range d.Counters() {
			c[cv.Name] = cv.Value
		}
		return c
	}
	id := uint64(0)
	for _, ph := range phases {
		before := counters()
		for range ph.burst {
			id++
			dev.Receive(pkt(id, uint16(id), ph.port, nil))
		}
		hh.Eng.Run()
		if err := d.Conserved(); err != nil {
			t.Fatalf("%s: %v", ph.cause, err)
		}
		if after := counters(); after[ph.row] == before[ph.row] {
			t.Errorf("%s: %s stayed at %d, so the phase missed its branch", ph.cause, ph.row, after[ph.row])
		}
	}
	if faults := counters()["ebpf_hook_faults"]; faults != 0 {
		t.Fatalf("%d policy faults", faults)
	}
}
