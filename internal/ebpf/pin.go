package ebpf

import (
	"fmt"
	"sort"
	"strings"
)

// PinRegistry models the bpffs/sysfs pin namespace syrupd uses to share
// maps between a userspace application and its policies deployed across
// hooks (§3.4). Access control mirrors file-system permissions: the owning
// UID always has access; others need the world-readable/writable bits.
type PinRegistry struct {
	entries map[string]*pinEntry
}

type pinEntry struct {
	m     *Map
	owner uint32
	mode  uint32 // unix-style permission bits; only 0444/0222 consulted
}

// Pin permission bits consulted by Open.
const (
	PinWorldRead  = 0o004
	PinWorldWrite = 0o002
)

// NewPinRegistry returns an empty registry.
func NewPinRegistry() *PinRegistry {
	return &PinRegistry{entries: make(map[string]*pinEntry)}
}

// Pin publishes m at path with the given owner and mode. Re-pinning an
// existing path fails, as in bpffs.
func (r *PinRegistry) Pin(path string, m *Map, owner uint32, mode uint32) error {
	if !strings.HasPrefix(path, "/") {
		return fmt.Errorf("ebpf: pin path %q must be absolute", path)
	}
	if _, ok := r.entries[path]; ok {
		return fmt.Errorf("ebpf: pin path %q already exists", path)
	}
	r.entries[path] = &pinEntry{m: m, owner: owner, mode: mode}
	return nil
}

// Open resolves a pinned map for uid, enforcing owner/world permissions.
// write selects which world bit is required for non-owners.
func (r *PinRegistry) Open(path string, uid uint32, write bool) (*Map, error) {
	e, ok := r.entries[path]
	if !ok {
		return nil, fmt.Errorf("ebpf: no map pinned at %q", path)
	}
	if e.owner != uid {
		need := uint32(PinWorldRead)
		if write {
			need = PinWorldWrite
		}
		if e.mode&need == 0 {
			return nil, fmt.Errorf("ebpf: permission denied opening %q as uid %d", path, uid)
		}
	}
	return e.m, nil
}

// Unpin removes a path; only the owner may unpin.
func (r *PinRegistry) Unpin(path string, uid uint32) error {
	e, ok := r.entries[path]
	if !ok {
		return fmt.Errorf("ebpf: no map pinned at %q", path)
	}
	if e.owner != uid {
		return fmt.Errorf("ebpf: uid %d cannot unpin %q owned by %d", uid, path, e.owner)
	}
	delete(r.entries, path)
	return nil
}

// List returns all pinned paths under prefix, sorted.
func (r *PinRegistry) List(prefix string) []string {
	var out []string
	for p := range r.entries {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
