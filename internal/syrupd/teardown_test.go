package syrupd

import (
	"reflect"
	"testing"

	"syrup/internal/faults"
	"syrup/internal/netstack"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// countXDP counts its tenant's packets in an array map and passes them on
// to the stack: a dispatcher-slot program whose every run a test can read
// back. It draws no randomness, so tenants running it share no stream.
const countXDP = `.map xdp_seen array 4 8 1
  *(u32 *)(r10 - 4) = 0
  r1 = map(xdp_seen)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r6 += 1
  *(u64 *)(r0 + 0) = r6
pass:
  r0 = PASS
  exit
`

// tenant is one app of a two-tenant host: its port and its two sockets.
type tenant struct {
	app, uid uint32
	port     uint16
	socks    [2]*netstack.Socket
}

// twoTenants builds a host with tenants A (app 1, port 9000) and B (app 2,
// port 9001). Each deploys round robin over its two sockets at Socket
// Select and countXDP in an xdp_skb dispatcher slot. The fault watchdog
// is armed.
func twoTenants(t *testing.T) (*host, *tenant, *tenant) {
	t.Helper()
	h := newHost(t, 1, 0)
	h.d.EnableQuarantine()
	var tenants [2]*tenant
	for i := range tenants {
		tn := &tenant{app: uint32(i + 1), uid: uint32(1001 + i), port: uint16(9000 + i)}
		if _, err := h.d.RegisterApp(tn.app, tn.uid, tn.port); err != nil {
			t.Fatal(err)
		}
		for j := range tn.socks {
			tn.socks[j], _ = h.stack.NewUDPSocket(tn.port, tn.app, "w")
		}
		if _, err := h.d.DeployBuiltin(tn.app, HookSocketSelect, policy.NameRoundRobin, map[string]int64{"NUM_THREADS": 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.d.DeployPolicy(tn.app, HookXDPSkb, countXDP, nil); err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	return h, tenants[0], tenants[1]
}

// send delivers n datagrams from distinct flows to tn's port and runs the
// host a millisecond on.
func (h *host) send(tn *tenant, n int) {
	for i := 0; i < n; i++ {
		h.dev.Receive(pkt(uint64(i), uint16(1000+i), tn.port, nil))
	}
	h.Eng.RunUntil(h.Eng.Now() + sim.Millisecond)
}

// enqueued is how many datagrams tn's sockets took, in all.
func (tn *tenant) enqueued() uint64 { return tn.socks[0].Enqueued + tn.socks[1].Enqueued }

// tenantView is everything of a tenant's deployments the host shows: its
// LinkInfo rows, the contents of its maps, and the counters of its Socket
// Select point.
type tenantView struct {
	Links    []LinkInfo
	Maps     map[string][]uint64
	Counters map[string]uint64
}

func (h *host) view(tn *tenant) tenantView {
	v := tenantView{Maps: map[string][]uint64{}, Counters: map[string]uint64{}}
	for _, l := range h.d.Links() {
		if l.App == tn.app {
			v.Links = append(v.Links, l)
		}
	}
	for name, m := range h.d.App(tn.app).Maps() {
		vals := make([]uint64, m.Spec().MaxEntries)
		for i := range vals {
			vals[i], _ = m.LookupUint64(uint32(i))
		}
		v.Maps[name] = vals
	}
	runs, faults := h.stack.LookupGroup(tn.port).Hook().StatsKeys()
	for _, c := range h.d.Counters() {
		if c.Name == runs || c.Name == faults {
			v.Counters[c.Name] = c.Value
		}
	}
	return v
}

// TestTenantTeardownIsolation tears tenant A down every way the daemon can
// — DetachApp at each hook, the fault watchdog's quarantine and RevokeApp
// — on a host where B runs beside it at the same two hooks. B's rows, map
// contents and point counters read the same just before and just after;
// afterwards B's traffic still runs B's programs into B's sockets, A's
// port is served by the default path where A was torn down, and B's
// pinned maps still refuse A's UID.
func TestTenantTeardownIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		// gone are the hooks the teardown takes A off.
		gone []Hook
		tear func(t *testing.T, h *host, a *tenant)
	}{
		{"detach_socket_select", []Hook{HookSocketSelect}, func(t *testing.T, h *host, a *tenant) {
			if err := h.d.DetachApp(a.app, HookSocketSelect); err != nil {
				t.Fatal(err)
			}
		}},
		{"detach_xdp_skb", []Hook{HookXDPSkb}, func(t *testing.T, h *host, a *tenant) {
			if err := h.d.DetachApp(a.app, HookXDPSkb); err != nil {
				t.Fatal(err)
			}
		}},
		{"quarantine", []Hook{HookSocketSelect}, func(t *testing.T, h *host, a *tenant) {
			// A threshold's worth of injected faults, all on A's traffic
			// and inside one watchdog window: B sends nothing while the
			// plan is live.
			plan := &faults.Plan{Specs: []faults.Spec{{Site: faults.SiteSocketSelect, Every: 1, Max: quarantineThreshold}}}
			h.Faults = plan.Compile(1, h.Eng.Now)
			h.send(a, quarantineThreshold)
			h.Eng.RunUntil(h.Eng.Now() + quarantineWindow)
			if !h.d.Quarantined(a.app, HookSocketSelect) {
				t.Fatal("A was not quarantined")
			}
		}},
		{"revoke", []Hook{HookSocketSelect, HookXDPSkb}, func(t *testing.T, h *host, a *tenant) {
			if err := h.d.RevokeApp(a.app); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, a, b := twoTenants(t)
			h.send(a, 6)
			h.send(b, 6)
			aSeen := h.d.App(a.app).Maps()["xdp_seen"]

			before := h.view(b)
			tc.tear(t, h, a)
			if after := h.view(b); !reflect.DeepEqual(before, after) {
				t.Fatalf("tearing A down moved B:\nbefore %+v\nafter  %+v", before, after)
			}

			// B's traffic still runs B's programs into B's sockets.
			const n = 4
			enq, seen := b.enqueued(), before.Maps["xdp_seen"][0]
			s0 := b.socks[0].Enqueued
			h.send(b, n)
			if got := b.enqueued() - enq; got != n || b.socks[0].Enqueued-s0 != n/2 {
				t.Fatalf("B's sockets took %d of %d (socket 0: %d), want round robin", got, n, b.socks[0].Enqueued-s0)
			}
			if got, _ := h.d.App(b.app).Maps()["xdp_seen"].LookupUint64(0); got != seen+n {
				t.Fatalf("B's slot program counted %d, want %d", got, seen+n)
			}
			for _, l := range h.view(b).Links {
				if l.Faults != 0 {
					t.Fatalf("B's %s deployment faulted: %+v", l.Hook, l)
				}
			}

			// A's port is served by the default path where A was torn down.
			enq = a.enqueued()
			aBefore, _ := aSeen.LookupUint64(0)
			h.send(a, n)
			if got := a.enqueued() - enq; got != n {
				t.Fatalf("A's sockets took %d of %d after teardown", got, n)
			}
			for _, hk := range tc.gone {
				switch hk {
				case HookSocketSelect:
					if h.stack.LookupGroup(a.port).Hook().Attached() {
						t.Fatal("A's Socket Select point still attached")
					}
				case HookXDPSkb:
					if got, _ := aSeen.LookupUint64(0); got != aBefore {
						t.Fatalf("A's torn-down slot program still ran: xdp_seen %d -> %d", aBefore, got)
					}
				}
			}

			// B's pinned maps refuse A's UID.
			for name := range h.d.App(b.app).Maps() {
				if _, err := h.d.OpenMap("/syrup/2/"+name, a.uid, false); err == nil {
					t.Fatalf("A's UID opened B's map %s", name)
				}
			}
			if err := h.d.Conserved(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
