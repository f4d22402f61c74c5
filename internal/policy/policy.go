// Package policy ships the scheduling policies the paper evaluates, in two
// forms: the packet policies as .syr assembly sources (the policy-file
// format users hand to syrupd) and the thread policies as native userspace
// code for the ghOSt hook. It also defines the application request header
// the packet policies parse.
package policy

import (
	"embed"
	"encoding/binary"
	"fmt"

	"syrup/internal/ebpf"
	"syrup/internal/ghost"
	"syrup/internal/kernel"
	"syrup/internal/sim"
)

//go:embed policies/*.syr
var sources embed.FS

// Policy names accepted by Source and the syrupd deploy protocol.
const (
	NameHash       = "hash"
	NameRoundRobin = "round_robin"
	NameScanAvoid  = "scan_avoid"
	NameSITA       = "sita"
	NameToken      = "token"
	NameMicaHash   = "mica_hash"
	// NameShed drops the best-effort tenant at the hook and round-robins
	// the rest — the adaptive controller's protective swap under SLO burn.
	NameShed = "shed"
	// NamePrio and NameUserWeight re-check what an earlier check already
	// proved (packet bounds, a resolved map value): the shipped policies
	// that drive the verifier's dominated-bounds and resolved-null paths.
	NamePrio       = "prio"
	NameUserWeight = "user_weight"
)

// Names lists the built-in policies.
func Names() []string {
	return []string{NameHash, NameRoundRobin, NameScanAvoid, NameSITA, NameToken, NameMicaHash, NameShed, NamePrio, NameUserWeight}
}

// Source returns the .syr source of a built-in policy.
func Source(name string) (string, error) {
	b, err := sources.ReadFile("policies/" + name + ".syr")
	if err != nil {
		return "", fmt.Errorf("policy: unknown policy %q", name)
	}
	return string(b), nil
}

// MustSource is Source for static names.
func MustSource(name string) string {
	s, err := Source(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Request types carried in the application header (shared by the RocksDB-
// and MICA-style workloads and the policies that peek at payloads).
const (
	ReqGET  uint64 = 1
	ReqSCAN uint64 = 2
	ReqPUT  uint64 = 3
)

// Application header layout within the packet payload (wire offsets are
// 8 bytes higher because the UDP header precedes the payload):
//
//	[0:8)   request type (u64)
//	[8:12)  user id (u32)      — token policy
//	[12:16) key hash (u32)     — MICA steering
//	[16:24) request id (u64)
const HeaderSize = 24

// EncodeHeader builds a request payload header.
func EncodeHeader(reqType uint64, userID, keyHash uint32, reqID uint64) []byte {
	return AppendHeader(nil, reqType, userID, keyHash, reqID)
}

// AppendHeader appends a request payload header to b (which may be a
// packet's inline scratch buffer) and returns the extended slice.
func AppendHeader(b []byte, reqType uint64, userID, keyHash uint32, reqID uint64) []byte {
	n := len(b)
	b = append(b, make([]byte, HeaderSize)...)
	binary.LittleEndian.PutUint64(b[n+0:], reqType)
	binary.LittleEndian.PutUint32(b[n+8:], userID)
	binary.LittleEndian.PutUint32(b[n+12:], keyHash)
	binary.LittleEndian.PutUint64(b[n+16:], reqID)
	return b
}

// KeyShardOf maps a request key hash to its cluster shard: the host that
// owns the key when a keyspace is partitioned across shards hosts. It
// reads the hash's high bits so it is independent of the low-bit
// within-host steering (keyHash % NUM_EXECUTORS in mica_hash) — a shard's
// keys still spread uniformly over a host's threads. Shard-aware clients
// (workload) and the sharded MICA server use this exact function.
func KeyShardOf(keyHash uint32, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(keyHash>>16) % shards
}

// DecodeHeader parses a payload header; ok=false if truncated.
func DecodeHeader(b []byte) (reqType uint64, userID, keyHash uint32, reqID uint64, ok bool) {
	if len(b) < HeaderSize {
		return 0, 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[0:]),
		binary.LittleEndian.Uint32(b[8:]),
		binary.LittleEndian.Uint32(b[12:]),
		binary.LittleEndian.Uint64(b[16:]),
		true
}

// Load assembles, links, and verifies a built-in policy with deploy-time
// defines (e.g., NUM_THREADS) and optional shared maps.
func Load(name string, defines map[string]int64, shared map[string]*ebpf.Map) (*ebpf.Program, map[string]*ebpf.Map, error) {
	src, err := Source(name)
	if err != nil {
		return nil, nil, err
	}
	return ebpf.AssembleAndLoad(name, src, defines, shared)
}

// SITADefines builds the define set SITA needs for n threads.
func SITADefines(n int) map[string]int64 {
	return map[string]int64{"NUM_THREADS": int64(n), "NT_MINUS_1": int64(n - 1)}
}

// TokenAgent is the userspace half of the token policy (§3.4 / §5.2.2): an
// epoch timer that replenishes the latency-sensitive user's tokens and
// gifts any leftovers to the best-effort user.
type TokenAgent struct {
	Tokens      *ebpf.Map
	LSUser      uint32
	BEUser      uint32
	PerEpoch    uint64 // tokens granted to the LS user each epoch
	Epoch       sim.Time
	GiftedTotal uint64
}

// Start begins the replenish loop on eng.
func (a *TokenAgent) Start(eng *sim.Engine) {
	if a.Epoch <= 0 {
		panic("policy: token epoch must be positive")
	}
	// Initial grant so the first epoch isn't dry.
	a.Tokens.UpdateUint64(a.LSUser, a.PerEpoch)
	eng.NewTicker(a.Epoch, func() {
		leftover, _ := a.Tokens.LookupUint64(a.LSUser)
		if leftover > 0 {
			// Gift unconsumed tokens to the best-effort user.
			a.Tokens.AddUint64(a.BEUser, leftover)
			a.GiftedTotal += leftover
		}
		a.Tokens.UpdateUint64(a.LSUser, a.PerEpoch)
	})
}

// GetPriority is the ghOSt thread policy from §5.3: threads processing GET
// requests get strict priority over threads processing SCANs, preempting
// them at will. The request type per thread slot comes from an
// application-populated map (the same cross-layer Map mechanism as SCAN
// Avoid's userspace half).
type GetPriority struct {
	// TypeOf reports the request type a thread is about to process (or 0
	// when idle). Applications back this with a Map lookup.
	TypeOf func(t *kernel.Thread) uint64

	// Scratch reused across decisions, so a decision allocates nothing (the
	// agent consumes the returned placements before it asks again).
	gets, others []*kernel.Thread
	out          []ghost.Placement
}

// idleCore returns the index of the first idle core whose bit in used (taken
// this decision; an enclave has at most 64 cores) is clear, or -1.
func idleCore(cpus []ghost.CPUView, used uint64) int {
	for i, c := range cpus {
		if used&(1<<uint(i)) == 0 && c.Curr == nil {
			return i
		}
	}
	return -1
}

// Schedule implements ghost.Policy.
func (p *GetPriority) Schedule(now sim.Time, runnable []*kernel.Thread, cpus []ghost.CPUView) []ghost.Placement {
	gets, others, out := p.gets[:0], p.others[:0], p.out[:0]
	for _, t := range runnable {
		if p.TypeOf(t) == ReqGET {
			gets = append(gets, t)
		} else {
			others = append(others, t)
		}
	}
	// GET threads take idle cores first, then preempt SCAN-running cores.
	var used uint64
	for _, t := range gets {
		if i := idleCore(cpus, used); i >= 0 {
			out = append(out, ghost.Placement{Thread: t, CPU: cpus[i].ID})
			used |= 1 << uint(i)
			continue
		}
		for i, c := range cpus {
			if used&(1<<uint(i)) == 0 && c.Curr != nil && p.TypeOf(c.Curr) != ReqGET {
				out = append(out, ghost.Placement{Thread: t, CPU: c.ID, Preempt: true})
				used |= 1 << uint(i)
				break
			}
		}
	}
	// Everyone else fills remaining idle cores FIFO.
	for _, t := range others {
		i := idleCore(cpus, used)
		if i < 0 {
			break
		}
		out = append(out, ghost.Placement{Thread: t, CPU: cpus[i].ID})
		used |= 1 << uint(i)
	}
	p.gets, p.others, p.out = gets, others, out
	return out
}

// FIFO is a baseline ghOSt policy: runnable threads fill idle cores in
// wake order, never preempting.
type FIFO struct {
	out []ghost.Placement // reused across decisions, like GetPriority's
}

// Schedule implements ghost.Policy.
func (p *FIFO) Schedule(now sim.Time, runnable []*kernel.Thread, cpus []ghost.CPUView) []ghost.Placement {
	out := p.out[:0]
	for _, c := range cpus {
		if len(out) == len(runnable) {
			break
		}
		if c.Curr == nil {
			out = append(out, ghost.Placement{Thread: runnable[len(out)], CPU: c.ID})
		}
	}
	p.out = out
	return out
}
