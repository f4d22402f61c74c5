package syrupd

import (
	"encoding/json"
	"strings"
	"testing"

	"syrup/internal/adapt"
	"syrup/internal/obs"
	"syrup/internal/sim"
)

// burnCfg is a one-rule table: fire on p99 SLO burn, react by deploying
// the round_robin builtin — the same path an operator's deploy op takes,
// so a broken builtin cannot slip past the verifier just because the
// controller asked for it.
func burnCfg() adapt.Config {
	return adapt.Config{
		Period: 100 * sim.Microsecond,
		Rules: []adapt.Rule{{
			Name: "p99_burn",
			Detect: obs.SLO{
				Name: "p99", Series: "p99", Target: 100, Budget: 0.1,
				Short: 300 * sim.Microsecond, Long: 600 * sim.Microsecond,
			},
			OnFire: adapt.ActionSpec{
				App: 1, Hook: "socket_select",
				Policy: "round_robin", Defines: map[string]int64{"NUM_THREADS": 2},
			},
			Sustain: 2,
		}},
	}
}

// TestAdaptServerOps drives adaptive control through the protocol end to
// end: adapt_enable rejects hosts without telemetry and malformed rule
// tables, a burning series makes the controller deploy through the
// daemon's own verify path, and the snapshot carries the loop's status,
// rules and history. Disable leaves the history readable — a postmortem
// needs the decisions that led here.
func TestAdaptServerOps(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	if resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}}); !resp.OK {
		t.Fatalf("register: %+v", resp)
	}
	h.stack.NewUDPSocket(9000, 1, "w0")
	h.stack.NewUDPSocket(9000, 1, "w1")

	// Before enable, the snapshot carries no controller state rather than
	// fabricating some.
	if hs := snapshotOf(t, srv); hs.Adapt != nil || hs.Rules != nil || hs.Decisions != nil {
		t.Fatalf("controller state with no controller: %+v", hs)
	}
	if resp := srv.Handle(&Request{Op: "adapt_enable"}); resp.OK {
		t.Fatal("adapt_enable without a rule table accepted")
	}
	cfg := burnCfg()
	if resp := srv.Handle(&Request{Op: "adapt_enable", AdaptConfig: &cfg}); resp.OK {
		t.Fatal("adapt_enable without telemetry accepted")
	}

	sa := obs.NewSampler(obs.Config{})
	h.Obs = sa
	bad := burnCfg()
	bad.Rules[0].Detect.Budget = 0
	if resp := srv.Handle(&Request{Op: "adapt_enable", AdaptConfig: &bad}); resp.OK {
		t.Fatal("malformed rule table accepted")
	}
	if resp := srv.Handle(&Request{Op: "adapt_enable", AdaptConfig: &cfg}); !resp.OK {
		t.Fatalf("adapt_enable: %+v", resp)
	}
	if hs := snapshotOf(t, srv); hs.Adapt == nil || !hs.Adapt.Enabled || hs.Adapt.Rules != 1 {
		t.Fatalf("snapshot after adapt_enable: %+v", hs.Adapt)
	}

	// Burn the objective: every sample is 5x target, landing between the
	// controller's ticks.
	sa.Gauge("p99", func() float64 { return 500 })
	for ts := 50 * sim.Microsecond; ts < 3*sim.Millisecond; ts += 100 * sim.Microsecond {
		at := ts
		h.Eng.CallAt(at, func(any, uint64) { sa.Sample(at) }, nil, 0)
	}
	h.Eng.RunUntil(3 * sim.Millisecond)

	hs := snapshotOf(t, srv)
	if hs.Adapt == nil || hs.Adapt.Ticks == 0 || hs.Adapt.Decisions != 1 {
		t.Fatalf("status after burn: %+v", hs.Adapt)
	}
	if len(hs.Rules) != 1 || !hs.Rules[0].Engaged || !hs.Rules[0].Firing {
		t.Fatalf("rules: %+v", hs.Rules)
	}
	if len(hs.Decisions) != 1 {
		t.Fatalf("history: %+v", hs.Decisions)
	}
	d := hs.Decisions[0]
	if d.Event != "fire" || d.Err != "" || !strings.Contains(d.Action, "round_robin") {
		t.Fatalf("decision: %+v", d)
	}
	// The reaction went through the real deploy path: nothing was deployed
	// before the controller acted, so the app's socket_select link is its
	// doing (programs carry daemon-scoped names, hence no literal
	// "round_robin" here).
	found := false
	for _, l := range hs.Links {
		if l.App == 1 && l.Hook == "socket_select" && !l.Quarantined {
			found = true
		}
	}
	if !found {
		t.Fatalf("controller's deploy not visible in links: %+v", hs.Links)
	}

	if resp := srv.Handle(&Request{Op: "adapt_disable"}); !resp.OK {
		t.Fatalf("adapt_disable: %+v", resp)
	}
	hs = snapshotOf(t, srv)
	if hs.Adapt == nil || hs.Adapt.Enabled {
		t.Fatalf("status after disable: %+v", hs.Adapt)
	}
	if len(hs.Decisions) != 1 {
		t.Fatalf("history lost on disable: %+v", hs.Decisions)
	}
}

// TestAdaptEnableRefusesRemovedKinds: the controller's one rule kind is
// an SLO burn that swaps a built-in. A table written for a detector or
// action kind it no longer has — as a client would send it on the control
// socket — is refused with an error, and nothing is armed.
func TestAdaptEnableRefusesRemovedKinds(t *testing.T) {
	const detect = `"detect":{"name":"p99","series":"p99","target":100,"budget":0.1,"short_ns":300000,"long_ns":600000}`
	const onFire = `"on_fire":{"app":1,"hook":"socket_select","policy":"round_robin","defines":{"NUM_THREADS":2}}`
	for kind, rule := range map[string]string{
		"dispersion":  `"detect":{"kind":"dispersion","series":"latency_LS_win_p99_us","denom":"latency_LS_win_p50_us","ratio":5},` + onFire,
		"imbalance":   `"detect":{"kind":"imbalance","group":["nic_inflight","softirq_backlog"],"ratio":3},` + onFire,
		"fault_spike": `"detect":{"kind":"fault_spike","app":1,"hook":"socket_select","count":10},` + onFire,
		"map_set":     detect + `,"on_fire":{"kind":"map_set","app":1,"map":"weights","key":0,"value":9}`,
		"quarantine":  detect + `,"on_fire":{"kind":"quarantine","app":1,"hook":"socket_select"}`,
	} {
		h := newHost(t, 1, 0)
		h.Obs = obs.NewSampler(obs.Config{})
		srv := NewServer(h.d)
		if resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}}); !resp.OK {
			t.Fatalf("register: %+v", resp)
		}
		var req Request
		line := `{"op":"adapt_enable","adapt_config":{"period_ns":100000,"rules":[{"name":"r",` + rule + `}]}}`
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if resp := srv.Handle(&req); resp.OK || !strings.Contains(resp.Error, `rule "r"`) {
			t.Errorf("%s: adapt_enable = %+v, want a refusal naming the rule", kind, resp)
		}
		if hs := snapshotOf(t, srv); hs.Adapt != nil {
			t.Errorf("%s: a controller was armed: %+v", kind, hs.Adapt)
		}
	}
}

// TestAdaptEnableRefusesAHostileWindow: a rule table whose window spans
// 2^62 ns — 4.6·10^13 ticks of a 100 µs sampler — is refused with an
// error naming the rule, not allocated, and arms nothing. The same line
// seeds FuzzHandle's corpus (op_adapt_enable_hostile_window).
func TestAdaptEnableRefusesAHostileWindow(t *testing.T) {
	const line = `{"op":"adapt_enable","adapt_config":{"period_ns":100000,"rules":[{"name":"r","detect":{"name":"p","series":"nic_inflight","target":0,"budget":0.5,"short_ns":200000,"long_ns":4611686018427387904},"on_fire":{"app":1,"hook":"socket_select","policy":"round_robin","defines":{"NUM_THREADS":2}},"sustain":1}]}}`
	h := newHost(t, 1, 0)
	h.Obs = obs.NewSampler(obs.Config{Period: 100 * sim.Microsecond})
	srv := NewServer(h.d)
	if resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}}); !resp.OK {
		t.Fatalf("register: %+v", resp)
	}
	_, stop := serving(srv, nil)
	resp := srv.serveLine([]byte(line))
	stop()
	if resp.OK || !strings.Contains(resp.Error, `rule "r" detect`) || !strings.Contains(resp.Error, "ticks") {
		t.Fatalf("adapt_enable with a 2^62 ns window = %+v, want a refusal naming the rule", resp)
	}
	if hs := snapshotOf(t, srv); hs.Adapt != nil {
		t.Fatalf("a refused table armed a controller: %+v", hs.Adapt)
	}
}
