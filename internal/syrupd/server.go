package syrupd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"syrup/internal/adapt"
	"syrup/internal/ebpf"
	"syrup/internal/policy"
	"syrup/internal/trace"
)

// This file implements syrupd's control protocol: newline-delimited JSON
// over a Unix domain socket, the stand-in for the paper's
// syr_deploy_policy IPC (§3.5: "a long-running daemon that is using a Unix
// Domain Socket to listen for requests from applications").

// Request is one client command.
type Request struct {
	Op string `json:"op"` // register_app | deploy | revoke_app | unquarantine | map_lookup | map_update | list_policies | trace | adapt_enable | adapt_disable | snapshot

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

	// adapt_enable: the controller's rule table.
	AdaptConfig *adapt.Config `json:"adapt_config,omitempty"`
}

// Response is the server's reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// AtNS is the host instant at which Serve applied the request, so a
	// client's (at_ns, request) pairs replay its ops.
	AtNS int64 `json:"at_ns,omitempty"`

	// deploy
	Instructions int `json:"instructions,omitempty"`
	SourceLines  int `json:"source_lines,omitempty"`

	// map_lookup
	Value uint64 `json:"value,omitempty"`
	Found bool   `json:"found,omitempty"`

	// list_policies
	Policies []string `json:"policies,omitempty"`

	// trace
	Spans   []trace.SpanJSON `json:"spans,omitempty"`
	Total   uint64           `json:"total,omitempty"`   // spans recorded since Reset
	Dropped uint64           `json:"dropped,omitempty"` // overwritten by the ring

	// snapshot
	Snapshot *HostSnapshot `json:"snapshot,omitempty"`
}

// Server serves the control protocol for one Daemon. Nothing a host owns
// locks itself (DESIGN.md "One owner per host"): Serve runs a served host,
// and any other goroutine, a socket connection's too, posts to it with Do.
type Server struct {
	d    *Daemon
	ln   net.Listener
	mail chan letter
	done chan struct{} // closed by Close
}

// letter is one message to Serve: an op, its deploy plan and where its
// reply goes, a tick (none of them) or the stop (a reply channel only).
type letter struct {
	req   *Request
	plan  *plan
	reply chan Response
}

// plan is the half of a deploy op that reads no host: the hook and the
// policy verified. A bad request is answered before the host's checks, a
// policy that does not verify after them, as in DeployPolicy.
type plan struct {
	hook      Hook
	v         *ebpf.Verified
	bad, verr error
}

// planDeploy makes a deploy request's plan, or nil for any other op.
func planDeploy(req *Request) *plan {
	if req.Op != "deploy" {
		return nil
	}
	p, src := &plan{}, req.Source
	p.hook, p.bad = ParseHook(req.Hook)
	if p.bad == nil && src == "" && req.Policy != "" {
		src, p.bad = policy.Source(req.Policy)
	}
	if p.bad == nil && src == "" {
		p.bad = fmt.Errorf("syrupd: deploy needs policy or source")
	}
	if p.bad == nil {
		p.v, p.verr = Verify(req.App, p.hook, src, req.Defines)
	}
	return p
}

// NewServer wraps a daemon.
func NewServer(d *Daemon) *Server {
	return &Server{d: d, mail: make(chan letter), done: make(chan struct{})}
}

// Serve is the loop that runs the host until Close: it calls step on each
// tick and applies each op posted to the mailbox, as it arrives, at the
// host's current instant, which the reply carries in AtNS. Only Serve may
// touch the host while it runs; once it returns, its caller owns it again.
func (s *Server) Serve(tick <-chan time.Time, step func()) {
	go func() { // ticks and the stop come as letters: the loop waits on one channel
		for {
			select {
			case <-tick:
				s.mail <- letter{}
			case <-s.done:
				s.mail <- letter{reply: make(chan Response)}
				return
			}
		}
	}()
	for l := range s.mail {
		switch {
		case l.req != nil:
			resp := s.handle(l.req, l.plan)
			resp.AtNS = int64(s.d.host.Eng.Now())
			l.reply <- resp
		case l.reply == nil:
			step()
		default:
			return
		}
	}
}

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

// Close stops the listener and Serve's loop. A request the loop has not
// taken by then gets an error reply instead of waiting. Call it once.
func (s *Server) Close() error {
	close(s.done)
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

// maxLine bounds one request line (policies can be long). A longer line
// gets an error reply and the connection closes: the scanner cannot find
// where the next request starts.
const maxLine = 1 << 20

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), maxLine)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		resp := s.serveLine(scanner.Bytes())
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		enc.Encode(&Response{Error: fmt.Sprintf("bad request: a request line must be shorter than %d bytes", maxLine)})
	}
}

// serveLine decodes one request line and posts it to the mailbox: the
// socket's one path from bytes to a reply.
func (s *Server) serveLine(line []byte) Response {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Response{Error: "bad request: " + err.Error()}
	}
	resp, _ := s.Do(&req)
	return *resp
}

// Handle executes one request on the calling goroutine, which must own the
// host: Serve's loop, or code that runs the host itself and serves no
// socket (a fleet scrape, a test).
func (s *Server) Handle(req *Request) Response { return s.handle(req, planDeploy(req)) }

// handle applies req, whose deploy plan (if it is a deploy) is made.
func (s *Server) handle(req *Request, pl *plan) Response {
	switch req.Op {
	case "register_app":
		if _, err := s.d.RegisterApp(req.App, req.UID, req.Ports...); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "deploy":
		if pl.bad != nil {
			return errResp(pl.bad)
		}
		l, err := s.d.deploy(req.App, pl.hook, pl.v, pl.verr)
		if err != nil {
			return errResp(err)
		}
		return Response{OK: true, Instructions: l.Program().Len(), SourceLines: l.Verified.SourceLines()}
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
	case "map_lookup":
		m, err := s.openWordMap(req, false)
		if err != nil {
			return errResp(err)
		}
		v, ok := m.LookupUint64(req.Key)
		return Response{OK: true, Value: v, Found: ok}
	case "map_update":
		m, err := s.openWordMap(req, true)
		if err != nil {
			return errResp(err)
		}
		if err := m.UpdateUint64(req.Key, req.Value); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "list_policies":
		return Response{OK: true, Policies: policy.Names()}
	case "adapt_enable":
		if req.AdaptConfig == nil {
			return errResp(fmt.Errorf("syrupd: adapt_enable needs adapt_config"))
		}
		if _, err := s.d.EnableAdapt(*req.AdaptConfig); err != nil {
			return errResp(err)
		}
		return Response{OK: true}
	case "adapt_disable":
		s.d.DisableAdapt()
		return Response{OK: true}
	case "snapshot":
		return Response{OK: true, Snapshot: s.d.snapshot()}
	case "trace":
		r := s.d.host.Tracer
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

// Do posts req to Serve's mailbox and waits for the reply, in Client.Do's
// form, so one caller can speak to a served host in process or over its
// socket alike. A deploy is verified here, on the caller's goroutine, so
// the loop spends none of the host's time on it. After Close it replies
// with an error instead of waiting.
func (s *Server) Do(req *Request) (*Response, error) {
	resp, reply := &Response{Error: "syrupd: server closed"}, make(chan Response, 1)
	pl := planDeploy(req)
	select {
	case s.mail <- letter{req, pl, reply}:
		*resp = <-reply
	case <-s.done:
	}
	return resp, resp.err()
}

// err is a failed reply as an error.
func (r *Response) err() error {
	if !r.OK && r.Error != "" {
		return fmt.Errorf("syrupd: %s", r.Error)
	}
	return nil
}

// openWordMap opens the pinned map a map_lookup or map_update names. Both
// ops speak 32-bit keys and 64-bit values, so both refuse a map of any
// other shape with the same error; otherwise a lookup would read a map it
// cannot address as an absent key.
func (s *Server) openWordMap(req *Request, write bool) (*ebpf.Map, error) {
	m, err := s.d.OpenMap(req.Path, req.UID, write)
	if err != nil {
		return nil, err
	}
	if sp := m.Spec(); sp.KeySize != 4 || sp.ValueSize != 8 {
		return nil, fmt.Errorf("syrupd: map %s has %d-byte keys and %d-byte values; map ops need 4 and 8", req.Path, sp.KeySize, sp.ValueSize)
	}
	return m, nil
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
	return &resp, resp.err()
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
