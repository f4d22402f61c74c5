// Quickstart: the paper's Figure-3 workflow end to end.
//
// We stand up a simulated host, register an application that owns UDP port
// 9000, bind three SO_REUSEPORT sockets, write a round-robin schedule()
// policy in the .syr dialect, deploy it through syrupd to the Socket
// Select hook, inject a burst of datagrams from a single flow (which
// vanilla hash steering would pile onto one socket), and read the policy's
// state back through the Map API.
package main

import (
	"fmt"
	"log"

	"syrup"
	"syrup/internal/nic"
)

// A schedule() implementation in the Syrup policy dialect: match each
// datagram (input) to a socket index (executor), round-robin.
const roundRobin = `
.const NUM_THREADS 3
.map rr_state array 4 8 1

  *(u32 *)(r10 - 4) = 0
  r1 = map(rr_state)
  r2 = r10
  r2 += -4
  call map_lookup_elem
  if r0 == 0 goto pass
  r6 = *(u64 *)(r0 + 0)
  r7 = r6
  r7 += 1
  *(u64 *)(r0 + 0) = r7
  r0 = r6
  r0 %= NUM_THREADS
  exit
pass:
  r0 = PASS
  exit
`

func main() {
	host, app := syrup.MustHostApp(syrup.HostConfig{Seed: 1, NICQueues: 2}, 1, 1000, 9000)

	// Three worker sockets in the port's reuseport group. The index each
	// registration returns is the executor id the policy's verdict picks.
	var socks []interface{ Len() int }
	for i := 0; i < 3; i++ {
		s, idx := app.NewUDPSocket(9000, fmt.Sprintf("worker-%d", i))
		fmt.Printf("bound socket %d (executor index %d)\n", i, idx)
		socks = append(socks, s)
	}

	// syr_deploy_policy(policy_file, SOCKET_SELECT)
	dep, err := app.DeployPolicy(roundRobin, syrup.HookSocketSelect, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed %q: %d instructions, verified\n", dep.Program().Name(), dep.Program().Len())

	// One busy flow sends 9 datagrams. Hash steering would send all nine
	// to the same socket; the policy spreads them 3/3/3.
	for i := 0; i < 9; i++ {
		host.NIC.Receive(&nic.Packet{
			ID: uint64(i), SrcIP: 0x0a000001, DstIP: 0x0a000002,
			SrcPort: 40000, DstPort: 9000, Payload: make([]byte, 32),
		})
	}
	host.Run()

	for i, s := range socks {
		fmt.Printf("socket %d received %d datagrams\n", i, s.Len())
	}

	// syr_map_open / syr_map_lookup_elem: the policy's counter is pinned
	// under the app's namespace.
	m, err := app.MapOpen("/syrup/1/rr_state")
	if err != nil {
		log.Fatal(err)
	}
	count, _ := m.LookupElem(0)
	fmt.Printf("rr_state counter = %d (one increment per scheduled datagram)\n", count)
	fmt.Printf("virtual time elapsed: %v\n", host.Now())
}
