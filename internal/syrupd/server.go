package syrupd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"syrup/internal/adapt"
	"syrup/internal/metrics"
	"syrup/internal/obs"
	"syrup/internal/policy"
	"syrup/internal/trace"
)

// This file implements syrupd's control protocol: newline-delimited JSON
// over a Unix domain socket, the stand-in for the paper's
// syr_deploy_policy IPC (§3.5: "a long-running daemon that is using a Unix
// Domain Socket to listen for requests from applications").

// Request is one client command.
type Request struct {
	Op string `json:"op"` // register_app | deploy | revoke_app | unquarantine | links | map_lookup | map_update | list_policies | stats | trace | metrics | timeseries | profile | adapt_enable | adapt_disable | adapt_status | adapt_rules | adapt_history

	// register_app
	App   uint32   `json:"app,omitempty"`
	UID   uint32   `json:"uid,omitempty"`
	Ports []uint16 `json:"ports,omitempty"`

	// deploy: either Policy (a built-in name) or Source (.syr text).
	Hook    string           `json:"hook,omitempty"`
	Policy  string           `json:"policy,omitempty"`
	Source  string           `json:"source,omitempty"`
	Defines map[string]int64 `json:"defines,omitempty"`

	// map_lookup / map_update
	Path  string `json:"path,omitempty"`
	Key   uint32 `json:"key,omitempty"`
	Value uint64 `json:"value,omitempty"`

	// trace: Port filters spans to one destination port (0 = all; App
	// filters to all of an app's ports) and Max caps the reply (0 = all).
	Port uint16 `json:"port,omitempty"`
	Max  int    `json:"max,omitempty"`

	// stats: Delta reports counters as increments since the previous
	// Delta snapshot instead of cumulative totals.
	Delta bool `json:"delta,omitempty"`

	// profile: Annotate includes the hotness-annotated disassembly.
	Annotate bool `json:"annotate,omitempty"`

	// adapt_enable: the controller's rule table.
	AdaptConfig *adapt.Config `json:"adapt_config,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// deploy
	Instructions int `json:"instructions,omitempty"`
	SourceLines  int `json:"source_lines,omitempty"`

	// map_lookup
	Value uint64 `json:"value,omitempty"`
	Found bool   `json:"found,omitempty"`

	// list_policies
	Policies []string `json:"policies,omitempty"`

	// links
	Links []LinkInfo `json:"links,omitempty"`

	// stats
	Stats map[string]float64 `json:"stats,omitempty"`

	// trace
	Spans   []trace.SpanJSON `json:"spans,omitempty"`
	Total   uint64           `json:"total,omitempty"`   // spans recorded since Reset
	Dropped uint64           `json:"dropped,omitempty"` // overwritten by the ring

	// stats / metrics / timeseries / profile: NowNS is the host's sim
	// clock at reply time, so repeated delta snapshots normalize into
	// true rates.
	NowNS int64 `json:"now_ns,omitempty"`

	// metrics: Prometheus text exposition.
	Text string `json:"text,omitempty"`

	// timeseries
	Series []obs.SeriesJSON `json:"series,omitempty"`

	// profile
	Profiles []ProfileInfo `json:"profiles,omitempty"`

	// adapt_status / adapt_rules / adapt_history
	Adapt     *adapt.Status      `json:"adapt,omitempty"`
	Rules     []adapt.RuleStatus `json:"rules,omitempty"`
	Decisions []adapt.Decision   `json:"decisions,omitempty"`
}

// Server serves the control protocol for one Daemon. All handling is
// serialized through mu, which the embedding process also holds while
// advancing the simulation (the engine is single-threaded).
type Server struct {
	mu sync.Mutex
	d  *Daemon
	// StatsFunc supplies the embedding host's live metrics for the stats
	// op (virtual time, throughput, latency percentiles, ...).
	StatsFunc func() map[string]float64

	// baseline holds the counter readings of the previous stats op in
	// Delta mode (nil until the first one). Each server owns its own, so
	// a second consumer of the same host never steals these deltas.
	baseline map[string]uint64

	ln net.Listener
}

// NewServer wraps a daemon.
func NewServer(d *Daemon) *Server { return &Server{d: d} }

// Lock acquires the server's big lock; the embedding simulation loop must
// hold it while running engine events so protocol handling never races the
// event loop.
func (s *Server) Lock() { s.mu.Lock() }

// Unlock releases the big lock.
func (s *Server) Unlock() { s.mu.Unlock() }

// ListenUnix starts accepting on a Unix socket path. It returns once the
// listener is ready; connections are handled on background goroutines.
func (s *Server) ListenUnix(path string) error {
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go s.serveConn(conn)
		}
	}()
	return nil
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20) // policies can be long
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		var req Request
		var resp Response
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			resp = Response{Error: "bad request: " + err.Error()}
		} else {
			resp = s.Handle(&req)
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// Handle executes one request under the big lock. It is exported so tests
// and in-process embeddings can skip the socket.
func (s *Server) Handle(req *Request) Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case "register_app":
		if _, err := s.d.RegisterApp(req.App, req.UID, req.Ports...); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "deploy":
		hook, err := ParseHook(req.Hook)
		if err != nil {
			return errResp(err)
		}
		src := req.Source
		if src == "" && req.Policy != "" {
			s, err := policy.Source(req.Policy)
			if err != nil {
				return errResp(err)
			}
			src = s
		}
		if src == "" {
			return errResp(fmt.Errorf("syrupd: deploy needs policy or source"))
		}
		res, err := s.d.DeployPolicy(req.App, hook, src, req.Defines)
		if err != nil {
			return errResp(err)
		}
		return Response{OK: true, Instructions: res.Program.Len(), SourceLines: res.SourceLines}
	case "revoke_app":
		if err := s.d.RevokeApp(req.App); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "unquarantine":
		hook, err := ParseHook(req.Hook)
		if err != nil {
			return errResp(err)
		}
		if err := s.d.Unquarantine(req.App, hook); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "links":
		links := s.d.Links()
		if req.App != 0 {
			filtered := links[:0]
			for _, l := range links {
				if l.App == req.App {
					filtered = append(filtered, l)
				}
			}
			links = filtered
		}
		return Response{OK: true, Links: links}
	case "map_lookup":
		m, err := s.d.OpenMap(req.Path, req.UID, false)
		if err != nil {
			return errResp(err)
		}
		v, ok := m.LookupUint64(req.Key)
		return Response{OK: true, Value: v, Found: ok}
	case "map_update":
		m, err := s.d.OpenMap(req.Path, req.UID, true)
		if err != nil {
			return errResp(err)
		}
		if err := m.UpdateUint64(req.Key, req.Value); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "list_policies":
		return Response{OK: true, Policies: policy.Names()}
	case "stats":
		resp := Response{OK: true, Stats: map[string]float64{}, NowNS: int64(s.d.Now())}
		if s.StatsFunc != nil {
			resp.Stats = s.StatsFunc()
		}
		// Fold in this host's counters without clobbering host-supplied
		// keys. Delta mode reports each counter's increment since this
		// server's previous delta snapshot instead of its cumulative
		// total. The counters are plain fields of their owners; the big
		// lock held here is what makes reading them safe.
		counters := s.d.Counters()
		if req.Delta {
			if s.baseline == nil {
				s.baseline = make(map[string]uint64, len(counters))
			}
			counters = metrics.DeltaSince(s.baseline, counters)
		}
		for _, c := range counters {
			putStat(resp.Stats, c.Name, float64(c.Value))
		}
		// Fold in the host's histograms as <name>_{count,p50_us,p99_us,
		// p999_us} (see DESIGN.md, "Stats key namespace").
		for name, h := range s.d.sampler.Histograms() {
			sum := h.Summarize()
			putStat(resp.Stats, name+"_count", float64(sum.Count))
			putStat(resp.Stats, name+"_p50_us", float64(sum.P50)/1e3)
			putStat(resp.Stats, name+"_p99_us", float64(sum.P99)/1e3)
			putStat(resp.Stats, name+"_p999_us", float64(sum.P999)/1e3)
		}
		return resp
	case "metrics":
		// Prometheus text exposition: the host's counters and histograms,
		// and the latest point of every telemetry series (when the host
		// runs a sampler).
		text := obs.PromText(s.d.Counters(), s.d.sampler.Histograms(), s.d.Obs(), s.d.Now())
		return Response{OK: true, Text: text, NowNS: int64(s.d.Now())}
	case "timeseries":
		st := s.d.Obs()
		if st == nil {
			return errResp(fmt.Errorf("syrupd: telemetry is not enabled on this host"))
		}
		return Response{OK: true, Series: st.Snapshot(), NowNS: int64(s.d.Now())}
	case "profile":
		return Response{OK: true, Profiles: s.d.Profiles(req.Annotate), NowNS: int64(s.d.Now())}
	case "adapt_enable":
		if req.AdaptConfig == nil {
			return errResp(fmt.Errorf("syrupd: adapt_enable needs adapt_config"))
		}
		c, err := s.d.EnableAdapt(*req.AdaptConfig)
		if err != nil {
			return errResp(err)
		}
		st := c.Status()
		return Response{OK: true, Adapt: &st, NowNS: int64(s.d.Now())}
	case "adapt_disable":
		s.d.DisableAdapt()
		return Response{OK: true, NowNS: int64(s.d.Now())}
	case "adapt_status":
		c := s.d.AdaptController()
		if c == nil {
			return errResp(fmt.Errorf("syrupd: adaptive control is not enabled on this host"))
		}
		st := c.Status()
		return Response{OK: true, Adapt: &st, NowNS: int64(s.d.Now())}
	case "adapt_rules":
		c := s.d.AdaptController()
		if c == nil {
			return errResp(fmt.Errorf("syrupd: adaptive control is not enabled on this host"))
		}
		return Response{OK: true, Rules: c.Rules(), NowNS: int64(s.d.Now())}
	case "adapt_history":
		c := s.d.AdaptController()
		if c == nil {
			return errResp(fmt.Errorf("syrupd: adaptive control is not enabled on this host"))
		}
		h := c.History()
		if req.Max > 0 && len(h) > req.Max {
			h = h[len(h)-req.Max:]
		}
		return Response{OK: true, Decisions: h, NowNS: int64(s.d.Now())}
	case "trace":
		r := s.d.Tracer()
		if r == nil {
			return errResp(fmt.Errorf("syrupd: tracing is not enabled on this host"))
		}
		var ports map[uint16]bool
		if req.App != 0 {
			app := s.d.App(req.App)
			if app == nil {
				return errResp(fmt.Errorf("syrupd: unknown app %d", req.App))
			}
			ports = make(map[uint16]bool, len(app.Ports))
			for _, p := range app.Ports {
				ports[p] = true
			}
		}
		resp := Response{OK: true, Total: r.Total(), Dropped: r.Dropped()}
		for _, sp := range r.Spans() {
			if req.Port != 0 && sp.Port != req.Port {
				continue
			}
			if ports != nil && !ports[sp.Port] {
				continue
			}
			resp.Spans = append(resp.Spans, sp.JSON())
			if req.Max > 0 && len(resp.Spans) >= req.Max {
				break
			}
		}
		return resp
	}
	return errResp(fmt.Errorf("syrupd: unknown op %q", req.Op))
}

func errResp(err error) Response { return Response{Error: err.Error()} }

// putStat sets a stats key unless the host's StatsFunc already claimed
// it.
func putStat(m map[string]float64, key string, v float64) {
	if _, taken := m[key]; !taken {
		m[key] = v
	}
}

// Client is a minimal protocol client for tools and tests.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// Dial connects to a syrupd control socket.
func Dial(path string) (*Client, error) {
	conn, err := net.Dial("unix", path)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, nil
}

// Do sends one request and reads the reply.
func (c *Client) Do(req *Request) (*Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, err
	}
	if !resp.OK && resp.Error != "" {
		return &resp, fmt.Errorf("syrupd: %s", resp.Error)
	}
	return &resp, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
