package syrupd

import (
	"encoding/json"
	"testing"

	"syrup/internal/obs"
	"syrup/internal/sim"
)

// FuzzHandle feeds the control protocol arbitrary request lines through
// serveLine, the socket's own decode-and-post path, to a served host with an
// app, two sockets, a sampler and traffic. Whatever the line, the reply
// has exactly one of ok and a non-empty error and encodes as JSON, and
// after a millisecond more of traffic the host still accounts for every
// packet and every instruction its programs ran. The seed corpus
// (testdata/fuzz/FuzzHandle) holds every request line of README.md, one
// line per op, malformed JSON, and a deploy failing at each stage of its
// split path (assembly and verification on the caller's goroutine; an
// unknown app and the thread hook on the loop, whose errors win over a
// program that does not verify); plain `go test` replays it.
func FuzzHandle(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		h := newHost(t, 1, 2)
		h.Obs = obs.NewSampler(obs.Config{Period: 100 * sim.Microsecond})
		h.Obs.Attach(h.Eng)
		srv := NewServer(h.d)
		if resp := srv.Handle(&Request{Op: "register_app", App: 1, UID: 1000, Ports: []uint16{9000}}); !resp.OK {
			t.Fatalf("register: %+v", resp)
		}
		h.stack.NewUDPSocket(9000, 1, "w0")
		h.stack.NewUDPSocket(9000, 1, "w1")

		_, stop := serving(srv, nil)
		resp := srv.serveLine(line)
		stop()
		if resp.OK == (resp.Error != "") {
			t.Fatalf("%q: ok=%v error=%q, want exactly one of them", line, resp.OK, resp.Error)
		}
		if _, err := json.Marshal(&resp); err != nil {
			t.Fatalf("%q: reply does not encode: %v", line, err)
		}

		for i := range 16 {
			h.dev.Receive(pkt(uint64(i), uint16(1000+i), 9000, nil))
		}
		h.Eng.RunUntil(h.Eng.Now() + sim.Millisecond)
		if err := h.d.Conserved(); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	})
}
