package ebpf

import (
	"encoding/binary"
	"fmt"

	"syrup/internal/faults"
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
type Env struct {
	Prandom func() uint32 // get_prandom_u32
	Ktime   func() uint64 // ktime_get_ns
	CPUID   uint32        // get_smp_processor_id

	// Faults is the host's chaos injector (nil disarms), fired inside the
	// helper bodies below, so an injected helper error behaves identically
	// on reused and fresh run state: SiteHelperLookup makes bpf_map_lookup_elem
	// return NULL, SiteHelperUpdate makes bpf_map_update_elem fail with -1
	// (the map-full error), and SiteTailCall makes bpf_tail_call hit the
	// MaxTailCalls budget — a runtime fault, not a fall-through.
	Faults *faults.Injector
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

// runState is the mutable state of one program invocation: registers,
// stack, dynamic map-value regions (the live values lookups returned),
// accounting, and the ambient context. Run reuses the program's own so
// steady-state execution allocates nothing; the reference takes a fresh one
// per run.
type runState struct {
	stack   [StackSize]byte
	regs    [NumRegs]uint64
	regions [][]byte
	env     *Env
	ctx     *Ctx
	stats   ExecStats
	// m, key and val are the helper arguments call resolved, in place.
	m        *Map
	key, val []byte
	// noEnv stands in for a nil Env; it is never written.
	noEnv Env
}

// fallbackPrandom draws from the program's own xorshift32 stream, used
// when a run's Env supplies no Prandom. The stream belongs to the program
// whose call instruction draws, so it depends on nothing but that
// program's earlier fallback draws. xorshift32 never reaches zero from a
// nonzero state, so the zero value means "no draw yet" and takes the fixed
// seed.
func (p *Program) fallbackPrandom() uint32 {
	x := p.prng
	if x == 0 {
		x = 0x9e3779b9
	}
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	p.prng = x
	return x
}

// mem resolves a tagged pointer to a live byte slice of exactly size bytes.
func (rs *runState) mem(ptr uint64, size int) ([]byte, error) {
	off := int(ptrOff(ptr))
	switch region := ptrRegion(ptr); {
	case region == regionStack:
		if off < 0 || off+size > StackSize {
			return nil, fmt.Errorf("stack access out of range: off %d size %d", off, size)
		}
		return rs.stack[off : off+size], nil
	case region == regionPacket:
		if off < 0 || off+size > len(rs.ctx.Packet) {
			return nil, errPacketRange(int64(off), size, len(rs.ctx.Packet))
		}
		return rs.ctx.Packet[off : off+size], nil
	case region >= regionDynBase:
		idx := int(region - regionDynBase)
		if idx >= len(rs.regions) {
			return nil, fmt.Errorf("bad dynamic region %d", idx)
		}
		r := rs.regions[idx]
		if off < 0 || off+size > len(r) {
			return nil, fmt.Errorf("map value access out of range: off %d size %d len %d", off, size, len(r))
		}
		return r[off : off+size], nil
	}
	return nil, fmt.Errorf("dereference of non-memory pointer %#x", ptr)
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

// load and store are the one body of a memory read and of a write (plain
// and XADD): every access the walker makes is checked here against the
// live region, and nothing the verifier proved is taken on trust.

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
	b, err := rs.mem(base+uint64(off), size)
	if err != nil {
		return 0, err
	}
	return loadSized(b, size), nil
}

func (rs *runState) store(base uint64, off int64, size int, v uint64, xadd bool) error {
	b, err := rs.mem(base+uint64(off), size)
	if err != nil {
		return err
	}
	if xadd {
		v += loadSized(b, size)
	}
	storeSized(b, size, v)
	return nil
}

// mapArg resolves helper argument register r to the map its handle names.
func (rs *runState) mapArg(p *Program, r int) (*Map, error) {
	v := rs.regs[r]
	if ptrRegion(v) != regionMapHandle {
		return nil, fmt.Errorf("helper arg r%d is not a map handle", r)
	}
	idx := int(ptrOff(v))
	if idx >= len(p.maps) {
		return nil, fmt.Errorf("bad map index %d", idx)
	}
	return p.maps[idx], nil
}

// call executes helper id on behalf of p. It resolves the arguments by the
// kinds the verifier checked them against: a map handle through mapArg,
// a key and a value through mem at the map's key and value sizes. Then it
// runs the body, which reads them from rs. A non-nil returned program
// means a successful tail call into that program.
func (rs *runState) call(p *Program, id int32) (*Program, error) {
	rs.stats.Helpers++
	h, perr := helperAt(id)
	if perr != nil {
		return nil, perr
	}
	var err error
	if r := h.reg[argMapHandle] | h.reg[argProgArray]; r != 0 {
		rs.m, err = rs.mapArg(p, int(r))
	}
	if r := h.reg[argStackKey]; r != 0 && err == nil {
		rs.key, err = rs.mem(rs.regs[r], int(rs.m.spec.KeySize))
	}
	if r := h.reg[argStackValue]; r != 0 && err == nil {
		rs.val, err = rs.mem(rs.regs[r], int(rs.m.spec.ValueSize))
	}
	if err != nil {
		return nil, err
	}
	return h.body(rs, p)
}

// ret ends a helper body that returns to its caller: R0 is v, and the
// caller-saved argument registers are scrubbed.
func (rs *runState) ret(v uint64) (*Program, error) {
	rs.regs[R0] = v
	for r := R1; r <= R5; r++ {
		rs.regs[r] = 0
	}
	return nil, nil
}

// status is ret of 0 on success and -1 on failure.
func (rs *runState) status(failed bool) (*Program, error) {
	if failed {
		return rs.ret(^uint64(0))
	}
	return rs.ret(0)
}

// The helper bodies, one per row of helpers, run on what call resolved.

// mapLookup registers a hit's value as a new dynamic region and returns a
// pointer to it; a miss, real or injected, returns NULL.
func (rs *runState) mapLookup(*Program) (*Program, error) {
	var ref []byte
	if !rs.env.Faults.Fire(faults.SiteHelperLookup) {
		ref = rs.m.lookupRef(rs.key)
	}
	if ref == nil {
		return rs.ret(0)
	}
	if len(rs.regions) >= (1<<16)-regionDynBase {
		return nil, fmt.Errorf("too many map value regions")
	}
	rs.regions = append(rs.regions, ref)
	return rs.ret(ptrVal(regionDynBase+uint64(len(rs.regions)-1), 0))
}

// mapUpdate fails (-1) on an injected map-full exactly as on a real one.
func (rs *runState) mapUpdate(*Program) (*Program, error) {
	return rs.status(rs.env.Faults.Fire(faults.SiteHelperUpdate) || !rs.m.store(rs.key, rs.val))
}

func (rs *runState) mapDelete(*Program) (*Program, error) { return rs.status(!rs.m.Delete(rs.key)) }

func (rs *runState) ktimeGetNS(*Program) (*Program, error) {
	if rs.env.Ktime == nil {
		return rs.ret(0)
	}
	return rs.ret(rs.env.Ktime())
}

func (rs *runState) prandomU32(p *Program) (*Program, error) {
	if rs.env.Prandom != nil {
		return rs.ret(uint64(rs.env.Prandom()))
	}
	return rs.ret(uint64(p.fallbackPrandom()))
}

func (rs *runState) smpProcessorID(*Program) (*Program, error) { return rs.ret(uint64(rs.env.CPUID)) }

// tailCall returns the program at index R3 of the prog_array, with R1
// still the ctx; a missing entry fails the call and execution goes on.
func (rs *runState) tailCall(*Program) (*Program, error) {
	target := rs.m.prog(uint32(rs.regs[R3]))
	if target == nil {
		return rs.status(true)
	}
	if rs.stats.TailCalls >= MaxTailCalls || rs.env.Faults.Fire(faults.SiteTailCall) {
		// Budget exhausted (or injected exhaustion): a runtime fault,
		// not a fall-through — a chain this deep is a runaway, and the
		// hook must count exactly one fault and fall open. The kernel
		// likewise aborts the program rather than resuming the caller.
		return nil, errTailCallBudget
	}
	rs.stats.TailCalls++
	rs.regs[R1] = ptrVal(regionCtx, 0)
	return target, nil
}
