package main

import "fmt"

// verify is the correctness gate on a finished world. It returns the
// number of requests the simulator lost (always 0 alongside a nil error)
// and fails when:
//   - a host's packets are not conserved: received by the NIC = dropped
//     (ring, XDP, stack causes) + finished by the application + still in a
//     queue;
//   - a client saw more unanswered requests than its host dropped or still
//     holds, or its own offered = completed + unanswered does not hold;
//   - any deployed policy faulted at run time (a verifier escape);
//   - the controllers took fewer decisions than the workload provokes.
func verify(w *world) (lost uint64, err error) {
	var sumRecv, sumDrop, sumServed, sumQueued uint64
	for _, m := range w.members {
		name := m.host.Name
		nic, st := m.host.NIC.Stats, m.host.Stack.Stats
		drops := nic.DroppedRing + nic.DroppedByXDP + st.TotalDrops()
		queued := uint64(m.host.NIC.InflightTotal())
		if m.queued != nil {
			queued += uint64(m.queued())
		}
		served := m.served()
		if nic.Received != drops+served+queued {
			lost += absDiff(nic.Received, drops+served+queued)
			err = fmt.Errorf("%s: packets not conserved: received %d != dropped %d (ring %d, xdp %d, stack %+v) + served %d + queued %d",
				name, nic.Received, drops, nic.DroppedRing, nic.DroppedByXDP, st, served, queued)
		}
		all := m.res.All
		if all.Offered != all.Completed+all.TotalDrops() {
			err = fmt.Errorf("%s: client requests not conserved: offered %d != completed %d + unanswered %d", name, all.Offered, all.Completed, all.TotalDrops())
		}
		if all.TotalDrops() > drops+queued {
			err = fmt.Errorf("%s: client saw %d unanswered requests, host accounts for only %d dropped + %d queued", name, all.TotalDrops(), drops, queued)
		}
		for _, l := range m.host.Daemon.Links() {
			if l.Faults != 0 {
				err = fmt.Errorf("%s: policy %s at %s faulted %d times", name, l.Program, l.Hook, l.Faults)
			}
		}
		sumRecv, sumDrop, sumServed, sumQueued = sumRecv+nic.Received, sumDrop+drops, sumServed+served, sumQueued+queued
	}
	if err == nil && sumRecv != sumDrop+sumServed+sumQueued {
		err = fmt.Errorf("fleet: packets not conserved: received %d != dropped %d + served %d + queued %d", sumRecv, sumDrop, sumServed, sumQueued)
	}
	if n := len(w.decisions()); n < w.sp.minDecisions {
		err = fmt.Errorf("controllers took %d decisions, want at least %d", n, w.sp.minDecisions)
	}
	return lost, err
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
