package workload

import (
	"testing"

	"syrup/internal/nic"
	"syrup/internal/policy"
	"syrup/internal/sim"
)

// oracleReq is the map oracle's view of one request.
type oracleReq struct {
	class    int
	measured bool
	open     bool
}

// FuzzRequestTable checks the paged request table against a map oracle.
// Each input byte is one operation, b%6 naming it and b/6 its argument:
//
//	0 send a burst of requests (measured or warm-up), delivered to the host
//	1 complete delivered requests (freeing each packet first), or complete
//	  requests whose packet was already freed
//	2 drop delivered requests (nic.Packet.Drop)
//	3 free delivered packets without completing their requests
//	4 complete already completed requests again, and a probe's id
//	5 advance the clock
//
// After every operation the table may hold no more pages than the open
// requests span, plus the page being filled; at the end Result's per-class
// offered, completed and unanswered counts and Lost must be the oracle's.
func FuzzRequestTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxIssued = 6 * pageSlots
		classes := []Class{
			{Name: "GET", Weight: 0.5, Type: policy.ReqGET},
			{Name: "SCAN", Weight: 0.5, Type: policy.ReqSCAN},
		}
		eng := sim.New(11)
		oracle := map[uint64]*oracleReq{}
		var delivered []*nic.Packet
		var freed, completed []uint64
		var dev *nic.NIC
		// A ring as deep as the table: the NIC itself drops nothing.
		dev = nic.New(eng, nic.Config{Queues: 1, RingSize: maxIssued}, func(q int, pkt *nic.Packet) {
			dev.Consumed(q)
			if reqType, _, _, _, _ := policy.DecodeHeader(pkt.Payload); reqType == policy.ReqSCAN {
				oracle[pkt.ID].class = 1
			}
			delivered = append(delivered, pkt)
		})
		g := New(eng, dev, Config{Rate: 1e6, DstPort: 9000, Classes: classes})
		var lost, lo uint64

		// take removes up to n entries from the head of s, or its tail.
		take := func(s *[]*nic.Packet, n int, tail bool) []*nic.Packet {
			n = min(n, len(*s))
			var out []*nic.Packet
			if tail {
				out = append(out, (*s)[len(*s)-n:]...)
				*s = (*s)[:len(*s)-n]
			} else {
				out = append(out, (*s)[:n]...)
				*s = (*s)[n:]
			}
			return out
		}
		complete := func(id uint64) {
			g.Complete(id, eng.Now())
			oracle[id].open = false
			completed = append(completed, id)
		}

		for _, b := range ops {
			op, arg := b%6, int(b/6)
			n := 1 << (arg / 2 % 12)
			switch op {
			case 0:
				measured := arg/13%2 == 0
				for i := 0; i < 1<<(arg%13) && g.issued < maxIssued; i++ {
					oracle[g.issued] = &oracleReq{measured: measured, open: true}
					g.send(measured)
				}
				eng.RunUntil(eng.Now() + wire)
			case 1:
				if arg%2 == 0 {
					for _, pkt := range take(&delivered, n, false) {
						id := pkt.ID
						pkt.Free()
						complete(id)
					}
				} else {
					k := min(n, len(freed))
					for _, id := range freed[:k] {
						complete(id)
					}
					freed = freed[k:]
				}
			case 2:
				for _, pkt := range take(&delivered, n, arg%2 == 1) {
					oracle[pkt.ID].open = false
					pkt.Drop()
					lost++
				}
			case 3:
				for _, pkt := range take(&delivered, n, arg%2 == 1) {
					freed = append(freed, pkt.ID)
					pkt.Free()
				}
			case 4:
				for i := 0; i < min(n, len(completed)); i++ {
					g.Complete(completed[(arg+i)%len(completed)], eng.Now())
				}
				g.Complete(1<<62+uint64(arg), eng.Now())
			case 5:
				eng.RunUntil(eng.Now() + sim.Time(arg)*sim.Microsecond)
			}

			// The open requests run from lo, the oldest (a settled request
			// never reopens, so lo only moves forward), to hi, the newest.
			for lo < g.issued && !oracle[lo].open {
				lo++
			}
			span := 0
			if lo < g.issued {
				hi := g.issued - 1
				for !oracle[hi].open {
					hi--
				}
				span = int(hi>>pageShift-lo>>pageShift) + 1
			}
			if held := heldPages(g); held > span+1 {
				t.Fatalf("after op %d(%d): %d pages held, open requests span %d", op, arg, held, span)
			}
		}

		// A measured request is unanswered unless it completed: lost, or
		// still open.
		want := make([]struct{ offered, completed, unanswered uint64 }, len(classes))
		for _, r := range oracle {
			if r.measured {
				want[r.class].offered++
				want[r.class].unanswered++
			}
		}
		for _, id := range completed {
			if r := oracle[id]; r.measured {
				want[r.class].completed++
				want[r.class].unanswered--
			}
		}
		for range 2 { // Result is idempotent
			res := g.Result()
			for i, c := range classes {
				st := res.PerClass[c.Name]
				if w := want[i]; st.Offered != w.offered || st.Completed != w.completed || st.TotalDrops() != w.unanswered {
					t.Fatalf("class %s: offered %d completed %d unanswered %d, oracle %d %d %d",
						c.Name, st.Offered, st.Completed, st.TotalDrops(), w.offered, w.completed, w.unanswered)
				}
			}
		}
		if g.Lost() != lost {
			t.Fatalf("lost %d, oracle %d", g.Lost(), lost)
		}
	})
}
