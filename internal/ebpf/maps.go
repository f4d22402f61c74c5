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
)

// maxStorageBytes caps the storage an ARRAY or PROG_ARRAY map allocates up
// front (MaxEntries slots of ValueSize bytes, or of one program pointer).
// A spec is tenant input — syrupd assembles `.map` lines from any client —
// and an allocation the runtime cannot satisfy ends the process rather
// than failing the call. 64 MiB is 8× Table 3's 2^20-entry map.
const maxStorageBytes = 64 << 20

func (t MapType) String() string {
	switch t {
	case MapArray:
		return "array"
	case MapHash:
		return "hash"
	case MapProgArray:
		return "prog_array"
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
	tooBig := func(slot uint64) error {
		if n := uint64(spec.MaxEntries) * slot; n > maxStorageBytes {
			return fmt.Errorf("ebpf: map %q: %d entries of %d bytes exceed the %d-byte storage limit", spec.Name, spec.MaxEntries, slot, maxStorageBytes)
		}
		return nil
	}
	switch spec.Type {
	case MapArray:
		if spec.KeySize != 4 {
			return nil, fmt.Errorf("ebpf: array map %q requires 4-byte keys", spec.Name)
		}
		if spec.ValueSize == 0 || spec.ValueSize > 1<<16 {
			return nil, fmt.Errorf("ebpf: map %q: value size %d out of range", spec.Name, spec.ValueSize)
		}
		if err := tooBig(uint64(spec.ValueSize)); err != nil {
			return nil, err
		}
		return &Map{spec: spec, arrayData: make([]byte, int(spec.MaxEntries)*int(spec.ValueSize))}, nil
	case MapHash:
		if spec.ValueSize == 0 || spec.ValueSize > 1<<16 {
			return nil, fmt.Errorf("ebpf: map %q: value size %d out of range", spec.Name, spec.ValueSize)
		}
		return &Map{spec: spec, hashData: make(map[string][]byte)}, nil
	case MapProgArray:
		if spec.KeySize != 4 || spec.ValueSize != 4 {
			return nil, fmt.Errorf("ebpf: prog_array %q requires 4-byte keys and values", spec.Name)
		}
		if err := tooBig(8); err != nil {
			return nil, err
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
// what the interpreter's map_lookup_elem helper uses. Callers must treat
// the kernel-side aliasing rules as in real eBPF.
func (m *Map) lookupRef(key []byte) []byte {
	switch m.spec.Type {
	case MapArray:
		idx := binary.LittleEndian.Uint32(key)
		if idx >= m.spec.MaxEntries {
			return nil
		}
		vs := int(m.spec.ValueSize)
		return m.arrayData[int(idx)*vs : int(idx)*vs+vs]
	case MapHash:
		m.mu.RLock()
		v := m.hashData[string(key)]
		m.mu.RUnlock()
		return v
	}
	return nil
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
	// Read the 8 bytes in place under the read lock: a copy would allocate
	// on every call, and thread policies call this per runnable thread per
	// decision.
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
	case MapArray:
		return m.lookupRef(key)
	case MapHash:
		return m.hashData[string(key)]
	}
	return nil
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
