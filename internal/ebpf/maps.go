package ebpf

import (
	"encoding/binary"
	"fmt"
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

// mapTypeNames spells each map type in .syr: String prints it and the
// assembler's .map line parses it.
var mapTypeNames = [...]string{MapArray: "array", MapHash: "hash", MapProgArray: "prog_array"}

func (t MapType) String() string {
	if t >= 0 && int(t) < len(mapTypeNames) {
		return mapTypeNames[t]
	}
	return fmt.Sprintf("MapType(%d)", int(t))
}

// MapSpec declares a map, mirroring the fields of bpf_map_create.
type MapSpec struct {
	Name       string
	Type       MapType
	KeySize    uint32 // bytes; PROG_ARRAY and ARRAY require 4
	ValueSize  uint32 // bytes; PROG_ARRAY requires 4 (prog fd)
	MaxEntries uint32
}

// Map is a kernel map. Value memory handed to a program is the live backing
// store (kernel semantics: lookups return pointers into map memory). A map
// belongs to one host, like everything else the host owns, and takes no
// lock: the host's event loop is its only user, and another goroutine —
// a syrupd client — reaches it only by posting an op to the loop that runs
// the host, syrupd.Server.Serve (DESIGN.md "One owner per host").
type Map struct {
	spec MapSpec

	// Array storage: one contiguous backing slice so value pointers remain
	// stable for the program's lifetime.
	arrayData []byte
	// Hash storage: value slices are allocated once per key and updated
	// in place so interpreter pointers stay valid.
	hashData map[string][]byte
	// Prog-array storage.
	progs []*Program
}

// check is the one set of rules a spec obeys: Verify applies it to each
// declared map, on its .map line, and NewMap to each map it creates.
func (s MapSpec) check() *posError {
	slot := uint64(s.ValueSize) // the storage an entry takes up front
	if s.Type == MapProgArray {
		slot = 8
	}
	switch {
	case s.MaxEntries == 0:
		return reject(-1, "map %q: max_entries must be > 0", s.Name)
	case s.KeySize == 0 || s.KeySize > 64:
		return reject(-1, "map %q: key size %d out of range (1..64)", s.Name, s.KeySize)
	case s.Type < MapArray || s.Type > MapProgArray:
		return reject(-1, "map %q: unknown type %d", s.Name, s.Type)
	case s.Type == MapArray && s.KeySize != 4:
		return reject(-1, "array map %q requires 4-byte keys", s.Name)
	case s.Type == MapProgArray && (s.KeySize != 4 || s.ValueSize != 4):
		return reject(-1, "prog_array %q requires 4-byte keys and values", s.Name)
	case s.ValueSize == 0 || s.ValueSize > 1<<16:
		return reject(-1, "map %q: value size %d out of range", s.Name, s.ValueSize)
	case s.Type != MapHash && uint64(s.MaxEntries)*slot > maxStorageBytes:
		return reject(-1, "map %q: %d entries of %d bytes exceed the %d-byte storage limit", s.Name, s.MaxEntries, slot, maxStorageBytes)
	}
	return nil
}

// NewMap validates the spec and allocates storage.
func NewMap(spec MapSpec) (*Map, error) {
	if err := spec.check(); err != nil {
		return nil, fmt.Errorf("ebpf: %w", err)
	}
	m := &Map{spec: spec}
	switch spec.Type {
	case MapArray:
		m.arrayData = make([]byte, int(spec.MaxEntries)*int(spec.ValueSize))
	case MapHash:
		m.hashData = make(map[string][]byte)
	case MapProgArray:
		m.progs = make([]*Program, spec.MaxEntries)
	}
	return m, nil
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
		return m.hashData[string(key)]
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

// Delete removes key's hash entry and reports whether there was one. An
// array entry cannot be deleted (kernel semantics): that is false too, as
// map_delete_elem's -1.
func (m *Map) Delete(key []byte) bool {
	_, ok := m.hashData[string(key)]
	delete(m.hashData, string(key))
	return ok
}

// LookupUint64 is the convenience accessor the paper's API defaults to
// (32-bit keys, 64-bit values).
func (m *Map) LookupUint64(key uint32) (uint64, bool) {
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], key)
	// Read the 8 bytes in place: a copy would allocate on every call, and
	// thread policies call this per runnable thread per decision.
	ref := m.lookupRef(kb[:])
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

// AddUint64 adds delta to the 64-bit value at key (userspace equivalent of
// the program-side XADD).
func (m *Map) AddUint64(key uint32, delta uint64) error {
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], key)
	if err := m.checkKey(kb[:]); err != nil {
		return err
	}
	ref := m.lookupRef(kb[:])
	if len(ref) < 8 {
		return fmt.Errorf("ebpf: map %q: key %d not found", m.spec.Name, key)
	}
	binary.LittleEndian.PutUint64(ref, binary.LittleEndian.Uint64(ref)+delta)
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
	m.progs[idx] = p
	return nil
}

// prog fetches a tail-call target.
func (m *Map) prog(idx uint32) *Program {
	if m.spec.Type != MapProgArray || idx >= m.spec.MaxEntries {
		return nil
	}
	return m.progs[idx]
}

// MapTable assigns file descriptors to maps, standing in for a process's
// fd table: the fds Load resolves. They count up from firstFD.
type MapTable struct{ maps []*Map }

// firstFD is a MapTable's first fd, as in a process whose stdio is open.
const firstFD = 3

// NewMapTable returns an empty table.
func NewMapTable() *MapTable { return &MapTable{} }

// Register assigns the next fd to m.
func (t *MapTable) Register(m *Map) int32 {
	t.maps = append(t.maps, m)
	return int32(len(t.maps)-1) + firstFD
}

// Get resolves an fd in t, which may be nil, or returns nil.
func (t *MapTable) Get(fd int32) *Map {
	if i := int(fd - firstFD); t != nil && i >= 0 && i < len(t.maps) {
		return t.maps[i]
	}
	return nil
}
