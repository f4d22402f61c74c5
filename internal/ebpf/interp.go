package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Context layout offsets, the program-visible view of a packet hook
// invocation (mirrors xdp_md / sk_reuseport_md: data and data_end pointers
// plus a few read-only metadata words).
const (
	CtxOffData    = 0  // u64: pointer to the first packet byte
	CtxOffDataEnd = 8  // u64: pointer one past the last packet byte
	CtxOffHash    = 16 // u32: RSS hash of the packet
	CtxOffPort    = 20 // u32: destination port
	CtxOffQueue   = 24 // u32: RX queue the packet arrived on
)

// Ctx is the runtime context handed to a packet-hook program.
type Ctx struct {
	Packet []byte
	Hash   uint32
	Port   uint32
	Queue  uint32
}

// Env supplies the ambient kernel facilities helpers need. A nil Env uses
// deterministic defaults (zero time, a fixed-seed xorshift PRNG).
//
// The Fault* hooks are armed by a chaos plan (internal/faults) and
// consulted inside the helper bodies below, so an injected helper error
// behaves identically under either decoding. Nil hooks (the default) cost
// one pointer check.
type Env struct {
	Prandom func() uint32 // get_prandom_u32
	Ktime   func() uint64 // ktime_get_ns
	CPUID   uint32        // get_smp_processor_id

	// FaultLookupMiss forces bpf_map_lookup_elem to return NULL.
	FaultLookupMiss func() bool
	// FaultUpdateFail forces bpf_map_update_elem to fail with -1
	// (the map-full error).
	FaultUpdateFail func() bool
	// FaultTailCall forces bpf_tail_call to hit the MaxTailCalls budget:
	// a runtime fault, not a fall-through.
	FaultTailCall func() bool
}

// errTailCallBudget aborts a program chain that exhausted MaxTailCalls.
var errTailCallBudget = fmt.Errorf("tail call budget exhausted (max %d)", MaxTailCalls)

// Runtime pointer encoding: 16-bit region tag | 48-bit offset. Verified
// programs only dereference in-range pointers, so the tag bits are never
// reachable by valid arithmetic (the verifier bounds pointer offsets).
const (
	regionShift     = 48
	regionStack     = 1
	regionPacket    = 2
	regionCtx       = 3
	regionMapHandle = 4
	regionDynBase   = 8 // dynamic map-value regions
	offMask         = (uint64(1) << regionShift) - 1
)

func ptrVal(region uint64, off uint64) uint64 { return region<<regionShift | (off & offMask) }
func ptrRegion(v uint64) uint64               { return v >> regionShift }
func ptrOff(v uint64) uint64                  { return v & offMask }

// ExecStats reports per-run accounting.
type ExecStats struct {
	Insns     int // instructions executed (across tail calls)
	TailCalls int
	Helpers   int
}

type dynRegion struct {
	data []byte
	m    *Map // owner, for atomic ops
}

// runState is the mutable state of one program invocation: registers,
// stack, dynamic map-value regions, accounting, and the ambient context.
// Run reuses runStates (a hook point's own RunState, or the pool behind
// Program.Run) so steady-state execution allocates nothing; the reference
// takes a fresh one per run.
type runState struct {
	stack   [StackSize]byte
	regs    [NumRegs]uint64
	regions []dynRegion
	env     *Env
	ctx     *Ctx
	stats   ExecStats
	// noEnv stands in for a nil Env; it is never written.
	noEnv Env
}

// fallbackPrandom draws from the program's own xorshift32 stream, used
// when a run's Env supplies no Prandom. The stream belongs to the program
// whose call instruction draws, so it depends on nothing but that
// program's earlier fallback draws. xorshift32 never reaches zero from a
// nonzero state, so the zero value means "no draw yet" and takes the fixed
// seed. The state is atomic because a Program is safe for concurrent Run
// calls; the CAS loop preserves the exact single-threaded sequence.
func (p *Program) fallbackPrandom() uint32 {
	for {
		old := p.prng.Load()
		x := old
		if x == 0 {
			x = 0x9e3779b9
		}
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if p.prng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// mem resolves a tagged pointer to a live byte slice of exactly size bytes.
func (rs *runState) mem(ptr uint64, size int) ([]byte, *Map, error) {
	off := int(ptrOff(ptr))
	switch region := ptrRegion(ptr); {
	case region == regionStack:
		if off < 0 || off+size > StackSize {
			return nil, nil, fmt.Errorf("stack access out of range: off %d size %d", off, size)
		}
		return rs.stack[off : off+size], nil, nil
	case region == regionPacket:
		if off < 0 || off+size > len(rs.ctx.Packet) {
			return nil, nil, errPacketRange(int64(off), size, len(rs.ctx.Packet))
		}
		return rs.ctx.Packet[off : off+size], nil, nil
	case region >= regionDynBase:
		idx := int(region - regionDynBase)
		if idx >= len(rs.regions) {
			return nil, nil, fmt.Errorf("bad dynamic region %d", idx)
		}
		r := rs.regions[idx]
		if off < 0 || off+size > len(r.data) {
			return nil, nil, fmt.Errorf("map value access out of range: off %d size %d len %d", off, size, len(r.data))
		}
		return r.data[off : off+size], r.m, nil
	}
	return nil, nil, fmt.Errorf("dereference of non-memory pointer %#x", ptr)
}

func errPacketRange(off int64, size, n int) error {
	return fmt.Errorf("packet access out of range: off %d size %d len %d", off, size, n)
}

func loadSized(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeSized(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// load, store and lookup are the one body each of a memory read, a memory
// write (plain and XADD) and bpf_map_lookup_elem: the walker's generic
// kinds land here. What its pinned kinds (walk.go) add is only what the
// verifier's facts let them skip — the region dispatch in mem, the handle
// and key resolution before lookup.

func (rs *runState) load(base uint64, off int64, size int) (uint64, error) {
	if ptrRegion(base) == regionCtx {
		switch off += int64(ptrOff(base)); off {
		case CtxOffData:
			return ptrVal(regionPacket, 0), nil
		case CtxOffDataEnd:
			return ptrVal(regionPacket, uint64(len(rs.ctx.Packet))), nil
		case CtxOffHash:
			return uint64(rs.ctx.Hash), nil
		case CtxOffPort:
			return uint64(rs.ctx.Port), nil
		case CtxOffQueue:
			return uint64(rs.ctx.Queue), nil
		default:
			return 0, fmt.Errorf("bad ctx load at %d", off)
		}
	}
	b, _, err := rs.mem(base+uint64(off), size)
	if err != nil {
		return 0, err
	}
	return loadSized(b, size), nil
}

func (rs *runState) store(base uint64, off int64, size int, v uint64, xadd bool) error {
	b, owner, err := rs.mem(base+uint64(off), size)
	if err != nil {
		return err
	}
	if xadd {
		// Serialize against the userspace map API via the owner's lock.
		if owner != nil {
			owner.mu.Lock()
		}
		v += loadSized(b, size)
	}
	storeSized(b, size, v)
	if xadd && owner != nil {
		owner.mu.Unlock()
	}
	return nil
}

// clobber sets a helper's return value and scrubs the caller-saved
// argument registers.
func (rs *runState) clobber(ret uint64) {
	rs.regs[R0] = ret
	for r := R1; r <= R5; r++ {
		rs.regs[r] = 0
	}
}

// lookup is bpf_map_lookup_elem once the map and the key bytes are
// resolved: a hit registers the value as a new dynamic region and returns
// a pointer to it in R0; a miss, real or injected, returns NULL.
func (rs *runState) lookup(m *Map, key []byte) error {
	var ref []byte
	if rs.env.FaultLookupMiss == nil || !rs.env.FaultLookupMiss() {
		ref = m.lookupRef(key)
	}
	if ref == nil {
		rs.clobber(0)
		return nil
	}
	if len(rs.regions) >= (1<<16)-regionDynBase {
		return fmt.Errorf("too many map value regions")
	}
	rs.regions = append(rs.regions, dynRegion{data: ref, m: m})
	rs.clobber(ptrVal(regionDynBase+uint64(len(rs.regions)-1), 0))
	return nil
}

// call executes helper id on behalf of p. A non-nil returned program means
// a successful tail call into that program. Helper accounting lives
// inside.
func (rs *runState) call(p *Program, id int32) (*Program, error) {
	rs.stats.Helpers++
	regs := &rs.regs
	mapArg := func(r int) (*Map, error) {
		v := regs[r]
		if ptrRegion(v) != regionMapHandle {
			return nil, fmt.Errorf("helper arg r%d is not a map handle", r)
		}
		idx := int(ptrOff(v))
		if idx >= len(p.maps) {
			return nil, fmt.Errorf("bad map index %d", idx)
		}
		return p.maps[idx], nil
	}
	keyArg := func(r int, m *Map) ([]byte, error) {
		b, _, err := rs.mem(regs[r], int(m.spec.KeySize))
		return b, err
	}

	switch id {
	case HelperMapLookup:
		m, err := mapArg(R1)
		if err != nil {
			return nil, err
		}
		key, err := keyArg(R2, m)
		if err != nil {
			return nil, err
		}
		return nil, rs.lookup(m, key)
	case HelperMapUpdate:
		m, err := mapArg(R1)
		if err != nil {
			return nil, err
		}
		key, err := keyArg(R2, m)
		if err != nil {
			return nil, err
		}
		val, _, err := rs.mem(regs[R3], int(m.spec.ValueSize))
		if err != nil {
			return nil, err
		}
		if rs.env.FaultUpdateFail != nil && rs.env.FaultUpdateFail() {
			// Injected map-full: R0 = -1, exactly a real update failure.
			rs.clobber(uint64(0xffffffffffffffff))
			return nil, nil
		}
		if err := m.Update(key, val); err != nil {
			rs.clobber(uint64(0xffffffffffffffff)) // -1
			return nil, nil
		}
		rs.clobber(0)
		return nil, nil
	case HelperMapDelete:
		m, err := mapArg(R1)
		if err != nil {
			return nil, err
		}
		key, err := keyArg(R2, m)
		if err != nil {
			return nil, err
		}
		if err := m.Delete(key); err != nil {
			rs.clobber(uint64(0xffffffffffffffff))
			return nil, nil
		}
		rs.clobber(0)
		return nil, nil
	case HelperKtimeGetNS:
		var t uint64
		if rs.env.Ktime != nil {
			t = rs.env.Ktime()
		}
		rs.clobber(t)
		return nil, nil
	case HelperPrandomU32:
		var r uint32
		if rs.env.Prandom != nil {
			r = rs.env.Prandom()
		} else {
			r = p.fallbackPrandom()
		}
		rs.clobber(uint64(r))
		return nil, nil
	case HelperGetSmpProcID:
		rs.clobber(uint64(rs.env.CPUID))
		return nil, nil
	case HelperTailCall:
		m, err := mapArg(R2)
		if err != nil {
			return nil, err
		}
		idx := uint32(regs[R3])
		target := m.prog(idx)
		if target == nil {
			// Missing entry: helper fails, execution continues.
			rs.clobber(uint64(0xffffffffffffffff))
			return nil, nil
		}
		if rs.stats.TailCalls >= MaxTailCalls ||
			(rs.env.FaultTailCall != nil && rs.env.FaultTailCall()) {
			// Budget exhausted (or injected exhaustion): a runtime fault,
			// not a fall-through — a chain this deep is a runaway, and the
			// hook must count exactly one fault and fall open. The kernel
			// likewise aborts the program rather than resuming the caller.
			return nil, errTailCallBudget
		}
		rs.stats.TailCalls++
		// r1 keeps pointing at the ctx for the next program.
		regs[R1] = ptrVal(regionCtx, 0)
		return target, nil
	}
	return nil, fmt.Errorf("unknown helper %d", id)
}
