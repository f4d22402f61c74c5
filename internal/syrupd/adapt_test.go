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

// TestAdaptServerOps drives the adapt_* control ops end to end: enable
// rejects hosts without telemetry and malformed rule tables, a burning
// series makes the controller deploy through the daemon's own verify
// path, and status/rules/history expose the loop's state. Disable leaves
// the history readable — a postmortem needs the decisions that led here.
func TestAdaptServerOps(t *testing.T) {
	h := newHost(t, 1, 0)
	srv := NewServer(h.d)
	if resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}}); !resp.OK {
		t.Fatalf("register: %+v", resp)
	}
	h.stack.NewUDPSocket(9000, 1, "w0")
	h.stack.NewUDPSocket(9000, 1, "w1")

	// Before enable, every read op refuses rather than fabricating state.
	for _, op := range []string{"adapt_status", "adapt_rules", "adapt_history"} {
		if resp := srv.Handle(&Request{Op: op}); resp.OK {
			t.Fatalf("%s succeeded with no controller", op)
		}
	}
	if resp := srv.Handle(&Request{Op: "adapt_enable"}); resp.OK {
		t.Fatal("adapt_enable without a rule table accepted")
	}
	cfg := burnCfg()
	if resp := srv.Handle(&Request{Op: "adapt_enable", AdaptConfig: &cfg}); resp.OK {
		t.Fatal("adapt_enable without telemetry accepted")
	}

	sa := obs.NewSampler(obs.Config{})
	h.d.SetObs(sa)
	st := sa.Store()
	bad := burnCfg()
	bad.Rules[0].Detect.Budget = 0
	if resp := srv.Handle(&Request{Op: "adapt_enable", AdaptConfig: &bad}); resp.OK {
		t.Fatal("malformed rule table accepted")
	}
	resp := srv.Handle(&Request{Op: "adapt_enable", AdaptConfig: &cfg})
	if !resp.OK || resp.Adapt == nil || !resp.Adapt.Enabled || resp.Adapt.Rules != 1 {
		t.Fatalf("adapt_enable: %+v", resp)
	}

	// Burn the objective: every sample is 5x target, landing between the
	// controller's ticks.
	series := st.Series("p99")
	for ts := 50 * sim.Microsecond; ts < 3*sim.Millisecond; ts += 100 * sim.Microsecond {
		at := ts
		h.eng.CallAt(at, func(any, uint64) { series.Append(at, 500) }, nil, 0)
	}
	h.eng.RunUntil(3 * sim.Millisecond)

	resp = srv.Handle(&Request{Op: "adapt_status"})
	if !resp.OK || resp.Adapt == nil || resp.Adapt.Ticks == 0 || resp.Adapt.Decisions != 1 {
		t.Fatalf("adapt_status after burn: %+v", resp)
	}
	resp = srv.Handle(&Request{Op: "adapt_rules"})
	if !resp.OK || len(resp.Rules) != 1 || !resp.Rules[0].Engaged || !resp.Rules[0].Firing {
		t.Fatalf("adapt_rules: %+v", resp)
	}
	resp = srv.Handle(&Request{Op: "adapt_history"})
	if !resp.OK || len(resp.Decisions) != 1 {
		t.Fatalf("adapt_history: %+v", resp)
	}
	d := resp.Decisions[0]
	if d.Event != "fire" || d.Err != "" || !strings.Contains(d.Action, "round_robin") {
		t.Fatalf("decision: %+v", d)
	}
	// The reaction went through the real deploy path: nothing was deployed
	// before the controller acted, so the app's socket_select link is its
	// doing (programs carry daemon-scoped names, hence no literal
	// "round_robin" here).
	links := srv.Handle(&Request{Op: "links"})
	found := false
	for _, l := range links.Links {
		if l.App == 1 && l.Hook == "socket_select" && !l.Quarantined {
			found = true
		}
	}
	if !found {
		t.Fatalf("controller's deploy not visible in links: %+v", links.Links)
	}
	// Max trims from the tail.
	if resp := srv.Handle(&Request{Op: "adapt_history", Max: 1}); len(resp.Decisions) != 1 {
		t.Fatalf("adapt_history max: %+v", resp)
	}

	if resp := srv.Handle(&Request{Op: "adapt_disable"}); !resp.OK {
		t.Fatalf("adapt_disable: %+v", resp)
	}
	resp = srv.Handle(&Request{Op: "adapt_status"})
	if !resp.OK || resp.Adapt.Enabled {
		t.Fatalf("status after disable: %+v", resp)
	}
	if resp := srv.Handle(&Request{Op: "adapt_history"}); !resp.OK || len(resp.Decisions) != 1 {
		t.Fatalf("history lost on disable: %+v", resp)
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
		h.d.SetObs(obs.NewSampler(obs.Config{}))
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
		if resp := srv.Handle(&Request{Op: "adapt_status"}); resp.OK {
			t.Errorf("%s: a controller was armed: %+v", kind, resp)
		}
	}
}
