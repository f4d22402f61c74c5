package syrup_test

import (
	"strings"
	"testing"

	"syrup"
	"syrup/internal/cluster"
	"syrup/internal/kernel"
)

func TestHostEndToEndRoundRobin(t *testing.T) {
	host := syrup.NewHost(syrup.HostConfig{NICQueues: 1})
	app, err := host.RegisterApp(1, 1000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	var socks []*socketish
	for i := 0; i < 3; i++ {
		s, idx := app.NewUDPSocket(9000, "w")
		if idx != i {
			t.Fatalf("socket index %d", idx)
		}
		socks = append(socks, &socketish{s.Len})
	}
	if _, err := app.DeployBuiltin("round_robin", syrup.HookSocketSelect,
		map[string]int64{"NUM_THREADS": 3}); err != nil {
		t.Fatal(err)
	}
	// Inject 9 datagrams of a single flow.
	for i := 0; i < 9; i++ {
		host.NIC.Receive(testPacket(uint64(i), 9000))
	}
	host.Run()
	for i, s := range socks {
		if s.len() != 3 {
			t.Fatalf("socket %d got %d datagrams", i, s.len())
		}
	}
	// Table-1 map API.
	m, err := app.MapOpen("/syrup/1/rr_state")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.LookupElem(0); !ok || v != 9 {
		t.Fatalf("rr counter = %d %v", v, ok)
	}
	if err := m.UpdateElem(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.AddElem(0, 5); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LookupElem(0); v != 5 {
		t.Fatalf("after update+add: %d", v)
	}
}

func TestBuiltinPoliciesExposed(t *testing.T) {
	names := syrup.BuiltinPolicies()
	if len(names) < 6 {
		t.Fatalf("builtins: %v", names)
	}
	for _, n := range names {
		src, err := syrup.BuiltinSource(n)
		if err != nil || src == "" {
			t.Fatalf("source for %q: %v", n, err)
		}
	}
	if _, err := syrup.BuiltinSource("nope"); err == nil {
		t.Fatal("unknown builtin resolved")
	}
}

func TestHostDeterminism(t *testing.T) {
	run := func() uint64 {
		host := syrup.NewHost(syrup.HostConfig{Seed: 42, NICQueues: 2})
		app, _ := host.RegisterApp(1, 1000, 9000)
		var total uint64
		for i := 0; i < 4; i++ {
			s, _ := app.NewUDPSocket(9000, "w")
			defer func() { total += s.Enqueued }()
		}
		for i := 0; i < 100; i++ {
			host.NIC.Receive(testPacket(uint64(i), 9000))
		}
		host.Run()
		return total + uint64(host.Now())
	}
	if run() != run() {
		t.Fatal("identical seeds produced different runs")
	}
}

// TestCoreCountIsBoundedByTheMachine: a host config asking for more cores
// than a machine models is refused with an error by TryNewHost and by the
// cluster layer, not a panic inside kernel.New; the largest machine builds.
func TestCoreCountIsBoundedByTheMachine(t *testing.T) {
	too := syrup.HostConfig{NumCPUs: kernel.MaxCPUs + 1}
	if _, err := syrup.TryNewHost(too); err == nil || !strings.Contains(err.Error(), "NumCPUs") {
		t.Fatalf("TryNewHost(NumCPUs %d) = %v, want a NumCPUs error", too.NumCPUs, err)
	}
	if _, err := cluster.New(cluster.Config{Hosts: 2, Host: too}); err == nil {
		t.Fatalf("cluster of NumCPUs %d hosts built", too.NumCPUs)
	}
	host, err := syrup.TryNewHost(syrup.HostConfig{NumCPUs: kernel.MaxCPUs})
	if err != nil {
		t.Fatal(err)
	}
	if got := host.Machine.NumCPUs(); got != kernel.MaxCPUs {
		t.Fatalf("machine has %d cores, want %d", got, kernel.MaxCPUs)
	}
}
