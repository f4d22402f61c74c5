package ebpf

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// MapType enumerates the map kinds Syrup needs: ARRAY (executor tables,
// counters), HASH (sparse keys), and PROG_ARRAY (tail-call targets, used by
// syrupd's per-port isolation dispatcher).
type MapType int

// Supported map types.
const (
	MapArray MapType = iota
	MapHash
	MapProgArray
	// MapPerCPUArray gives each CPU its own value per key (like
	// BPF_MAP_TYPE_PERCPU_ARRAY): programs running on different cores
	// update disjoint memory, so counters need no atomics. Userspace
	// reads aggregate with SumUint64.
	MapPerCPUArray
)

// PerCPUSlots is the fixed per-key slot count of per-CPU maps (one per
// possible CPU, like the kernel's num_possible_cpus).
const PerCPUSlots = 64

func (t MapType) String() string {
	switch t {
	case MapArray:
		return "array"
	case MapHash:
		return "hash"
	case MapProgArray:
		return "prog_array"
	case MapPerCPUArray:
		return "percpu_array"
	}
	return fmt.Sprintf("MapType(%d)", int(t))
}

// MapTypeByName parses assembler map-type names.
func MapTypeByName(s string) (MapType, error) {
	switch s {
	case "array":
		return MapArray, nil
	case "hash":
		return MapHash, nil
	case "prog_array":
		return MapProgArray, nil
	case "percpu_array":
		return MapPerCPUArray, nil
	}
	return 0, fmt.Errorf("ebpf: unknown map type %q", s)
}

// MapSpec declares a map, mirroring the fields of bpf_map_create.
type MapSpec struct {
	Name       string
	Type       MapType
	KeySize    uint32 // bytes; PROG_ARRAY and ARRAY require 4
	ValueSize  uint32 // bytes; PROG_ARRAY requires 4 (prog fd)
	MaxEntries uint32
}

// Map is a kernel map. All userspace-facing operations are internally
// synchronized; value memory handed to the interpreter is the live backing
// store (kernel semantics: lookups return pointers into map memory), and
// concurrent unsynchronized access through those pointers races exactly as
// it does in real eBPF unless the program uses atomic XADD.
type Map struct {
	spec MapSpec

	mu sync.RWMutex
	// Array storage: one contiguous backing slice so value pointers remain
	// stable for the program's lifetime.
	arrayData []byte
	// Hash storage: value slices are allocated once per key and updated
	// in place so interpreter pointers stay valid.
	hashData map[string][]byte
	// Prog-array storage.
	progs []*Program
}

// NewMap validates the spec and allocates storage.
func NewMap(spec MapSpec) (*Map, error) {
	if spec.MaxEntries == 0 {
		return nil, fmt.Errorf("ebpf: map %q: max_entries must be > 0", spec.Name)
	}
	if spec.KeySize == 0 || spec.KeySize > 64 {
		return nil, fmt.Errorf("ebpf: map %q: key size %d out of range (1..64)", spec.Name, spec.KeySize)
	}
	switch spec.Type {
	case MapArray, MapPerCPUArray:
		if spec.KeySize != 4 {
			return nil, fmt.Errorf("ebpf: array map %q requires 4-byte keys", spec.Name)
		}
		if spec.ValueSize == 0 || spec.ValueSize > 1<<16 {
			return nil, fmt.Errorf("ebpf: map %q: value size %d out of range", spec.Name, spec.ValueSize)
		}
		slots := 1
		if spec.Type == MapPerCPUArray {
			slots = PerCPUSlots
		}
		return &Map{spec: spec, arrayData: make([]byte, int(spec.MaxEntries)*int(spec.ValueSize)*slots)}, nil
	case MapHash:
		if spec.ValueSize == 0 || spec.ValueSize > 1<<16 {
			return nil, fmt.Errorf("ebpf: map %q: value size %d out of range", spec.Name, spec.ValueSize)
		}
		return &Map{spec: spec, hashData: make(map[string][]byte)}, nil
	case MapProgArray:
		if spec.KeySize != 4 || spec.ValueSize != 4 {
			return nil, fmt.Errorf("ebpf: prog_array %q requires 4-byte keys and values", spec.Name)
		}
		return &Map{spec: spec, progs: make([]*Program, spec.MaxEntries)}, nil
	}
	return nil, fmt.Errorf("ebpf: map %q: unknown type %d", spec.Name, spec.Type)
}

// MustNewMap is NewMap that panics on error; for tests and static tables.
func MustNewMap(spec MapSpec) *Map {
	m, err := NewMap(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// Spec returns the map's declaration.
func (m *Map) Spec() MapSpec { return m.spec }

func (m *Map) checkKey(key []byte) error {
	if uint32(len(key)) != m.spec.KeySize {
		return fmt.Errorf("ebpf: map %q: key size %d, want %d", m.spec.Name, len(key), m.spec.KeySize)
	}
	return nil
}

// lookupRef returns the live value slice (no copy); nil if absent. It is
// what the interpreter's map_lookup_elem helper uses; cpu selects the
// replica for per-CPU maps. Callers must treat the kernel-side aliasing
// rules as in real eBPF.
func (m *Map) lookupRef(key []byte, cpu uint32) []byte {
	switch m.spec.Type {
	case MapArray:
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return nil
		}
		vs := int(m.spec.ValueSize)
		return m.arrayData[int(idx)*vs : int(idx)*vs+vs]
	case MapPerCPUArray:
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return nil
		}
		vs := int(m.spec.ValueSize)
		off := (int(idx)*PerCPUSlots + int(cpu%PerCPUSlots)) * vs
		return m.arrayData[off : off+vs]
	case MapHash:
		m.mu.RLock()
		v := m.hashData[string(key)]
		m.mu.RUnlock()
		return v
	}
	return nil
}

// Lookup returns a copy of the value for key, or ok=false if absent.
func (m *Map) Lookup(key []byte) ([]byte, bool) {
	if err := m.checkKey(key); err != nil {
		return nil, false
	}
	if m.spec.Type == MapProgArray {
		return nil, false // prog arrays are not data-readable, like the kernel
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var ref []byte
	switch m.spec.Type {
	case MapArray, MapPerCPUArray:
		// Per-CPU lookups from userspace read replica 0; SumUint64
		// aggregates across replicas.
		ref = m.lookupRef(key, 0)
		if ref == nil {
			return nil, false
		}
	case MapHash:
		ref = m.hashData[string(key)]
	}
	if ref == nil {
		return nil, false
	}
	out := make([]byte, len(ref))
	copy(out, ref)
	return out, true
}

// Update stores value at key, creating hash entries as needed.
func (m *Map) Update(key, value []byte) error {
	if err := m.checkKey(key); err != nil {
		return err
	}
	if m.spec.Type == MapProgArray {
		return fmt.Errorf("ebpf: prog_array %q: use UpdateProg", m.spec.Name)
	}
	if uint32(len(value)) != m.spec.ValueSize {
		return fmt.Errorf("ebpf: map %q: value size %d, want %d", m.spec.Name, len(value), m.spec.ValueSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.spec.Type {
	case MapArray:
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return fmt.Errorf("ebpf: array map %q: index %d out of range", m.spec.Name, idx)
		}
		vs := int(m.spec.ValueSize)
		copy(m.arrayData[int(idx)*vs:], value)
	case MapPerCPUArray:
		// Userspace updates broadcast to every replica (the convention
		// for configuration values; per-replica writes happen in-kernel).
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return fmt.Errorf("ebpf: percpu map %q: index %d out of range", m.spec.Name, idx)
		}
		vs := int(m.spec.ValueSize)
		base := int(idx) * PerCPUSlots * vs
		for c := 0; c < PerCPUSlots; c++ {
			copy(m.arrayData[base+c*vs:base+(c+1)*vs], value)
		}
	case MapHash:
		if v, ok := m.hashData[string(key)]; ok {
			copy(v, value)
		} else {
			if uint32(len(m.hashData)) >= m.spec.MaxEntries {
				return fmt.Errorf("ebpf: hash map %q full (%d entries)", m.spec.Name, m.spec.MaxEntries)
			}
			v := make([]byte, m.spec.ValueSize)
			copy(v, value)
			m.hashData[string(key)] = v
		}
	}
	return nil
}

// Delete removes a hash entry; array entries cannot be deleted (kernel
// semantics), and the call reports an error for them.
func (m *Map) Delete(key []byte) error {
	if err := m.checkKey(key); err != nil {
		return err
	}
	switch m.spec.Type {
	case MapHash:
		m.mu.Lock()
		defer m.mu.Unlock()
		if _, ok := m.hashData[string(key)]; !ok {
			return fmt.Errorf("ebpf: map %q: key not found", m.spec.Name)
		}
		delete(m.hashData, string(key))
		return nil
	default:
		return fmt.Errorf("ebpf: map %q: delete unsupported for %v", m.spec.Name, m.spec.Type)
	}
}

// LookupUint64 is the convenience accessor the paper's API defaults to
// (32-bit keys, 64-bit values).
func (m *Map) LookupUint64(key uint32) (uint64, bool) {
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], key)
	// Read the 8 bytes in place under the read lock: Lookup's defensive
	// copy would allocate on every call, and thread policies call this per
	// runnable thread per decision.
	m.mu.RLock()
	defer m.mu.RUnlock()
	ref := m.lookupRefLocked(kb[:])
	if len(ref) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(ref), true
}

// UpdateUint64 stores a 64-bit value under a 32-bit key.
func (m *Map) UpdateUint64(key uint32, value uint64) error {
	var kb [4]byte
	var vb [8]byte
	binary.LittleEndian.PutUint32(kb[:], key)
	binary.LittleEndian.PutUint64(vb[:], value)
	return m.Update(kb[:], vb[:])
}

// AddUint64 atomically adds delta to the 64-bit value at key (userspace
// equivalent of the program-side XADD).
func (m *Map) AddUint64(key uint32, delta uint64) error {
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], key)
	if err := m.checkKey(kb[:]); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ref := m.lookupRefLocked(kb[:])
	if ref == nil || len(ref) < 8 {
		return fmt.Errorf("ebpf: map %q: key %d not found", m.spec.Name, key)
	}
	binary.LittleEndian.PutUint64(ref, binary.LittleEndian.Uint64(ref)+delta)
	return nil
}

func (m *Map) lookupRefLocked(key []byte) []byte {
	switch m.spec.Type {
	case MapArray, MapPerCPUArray:
		return m.lookupRef(key, 0)
	case MapHash:
		return m.hashData[string(key)]
	}
	return nil
}

// SumUint64 aggregates a per-CPU map's 64-bit value at key across every
// CPU replica (for plain maps it degenerates to LookupUint64).
func (m *Map) SumUint64(key uint32) (uint64, bool) {
	if m.spec.Type != MapPerCPUArray {
		return m.LookupUint64(key)
	}
	if key >= m.spec.MaxEntries {
		return 0, false
	}
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], key)
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sum uint64
	for c := uint32(0); c < PerCPUSlots; c++ {
		if ref := m.lookupRef(kb[:], c); len(ref) >= 8 {
			sum += binary.LittleEndian.Uint64(ref)
		}
	}
	return sum, true
}

// UpdateProg installs a program in a PROG_ARRAY slot (nil clears it).
func (m *Map) UpdateProg(idx uint32, p *Program) error {
	if m.spec.Type != MapProgArray {
		return fmt.Errorf("ebpf: map %q is not a prog_array", m.spec.Name)
	}
	if idx >= m.spec.MaxEntries {
		return fmt.Errorf("ebpf: prog_array %q: index %d out of range", m.spec.Name, idx)
	}
	m.mu.Lock()
	m.progs[idx] = p
	m.mu.Unlock()
	return nil
}

// prog fetches a tail-call target.
func (m *Map) prog(idx uint32) *Program {
	if m.spec.Type != MapProgArray || idx >= m.spec.MaxEntries {
		return nil
	}
	m.mu.RLock()
	p := m.progs[idx]
	m.mu.RUnlock()
	return p
}

// Iterate visits every present entry of a hash map, or every slot of an
// array map, with a copied key and value. Iteration order for hash maps is
// unspecified. Used by agents that sweep maps (e.g., the token gifter).
func (m *Map) Iterate(fn func(key, value []byte) bool) {
	switch m.spec.Type {
	case MapArray:
		vs := int(m.spec.ValueSize)
		for i := uint32(0); i < m.spec.MaxEntries; i++ {
			var kb [4]byte
			binary.LittleEndian.PutUint32(kb[:], i)
			m.mu.RLock()
			v := make([]byte, vs)
			copy(v, m.arrayData[int(i)*vs:])
			m.mu.RUnlock()
			if !fn(kb[:], v) {
				return
			}
		}
	case MapHash:
		m.mu.RLock()
		keys := make([]string, 0, len(m.hashData))
		for k := range m.hashData {
			keys = append(keys, k)
		}
		m.mu.RUnlock()
		for _, k := range keys {
			v, ok := m.Lookup([]byte(k))
			if !ok {
				continue
			}
			if !fn([]byte(k), v) {
				return
			}
		}
	}
}

// MapTable assigns file descriptors to maps, standing in for the
// per-process fd table; syrupd owns one table per application.
type MapTable struct {
	mu   sync.Mutex
	next int32
	byFD map[int32]*Map
}

// NewMapTable returns an empty table. FDs start at 3, like a process whose
// stdio is already open.
func NewMapTable() *MapTable {
	return &MapTable{next: 3, byFD: make(map[int32]*Map)}
}

// Register assigns the next fd to m.
func (t *MapTable) Register(m *Map) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd := t.next
	t.next++
	t.byFD[fd] = m
	return fd
}

// Get resolves an fd, or nil.
func (t *MapTable) Get(fd int32) *Map {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byFD[fd]
}

// Close drops an fd. The map lives on while programs reference it.
func (t *MapTable) Close(fd int32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byFD[fd]; !ok {
		return fmt.Errorf("ebpf: bad map fd %d", fd)
	}
	delete(t.byFD, fd)
	return nil
}
