package syrupd

import (
	"encoding/binary"
	"fmt"
	"slices"

	"syrup/internal/ebpf"
	"syrup/internal/hook"
	"syrup/internal/netstack"
)

// dispatcher is the per-hook isolation layer for device-wide hooks: a root
// program the daemon generates once, a port→slot HASH map, and a PROG_ARRAY
// holding one slot per application policy. The root looks up the packet's
// destination port; a hit tail-calls the owning app's program, a miss
// PASSes to the default path (§4.3).
type dispatcher struct {
	hook      Hook
	root      *ebpf.Program
	rootLink  *hook.Link // the root's attachment at the layer's hook point
	portMap   *ebpf.Map  // u32 port -> u64 slot
	progArray *ebpf.Map
	// held marks the slots a deployment holds; install takes the lowest
	// free one and Close frees it.
	held [dispatcherSlots]bool
}

const dispatcherSlots = 64

// dispatcher returns (building and installing on first use) the hook's
// dispatcher.
func (d *Daemon) dispatcher(hk Hook) (*dispatcher, error) {
	if disp, ok := d.dispatch[hk]; ok {
		return disp, nil
	}
	disp, err := newDispatcher(hk)
	if err != nil {
		return nil, err
	}
	// Attach the root at the layer's hook point; the daemon owns the link.
	// The two XDP hooks share the stack's one XDP point (they differ only
	// in where the program runs), so deploying to both at once fails the
	// second Attach instead of silently shadowing the first.
	var pt *hook.Point
	xdpMode := netstack.XDPNone
	switch hk {
	case HookCPURedirect:
		pt = d.stack.CPURedirect()
	case HookXDPDrv:
		pt, xdpMode = d.stack.XDP(), netstack.XDPNative
	case HookXDPSkb:
		pt, xdpMode = d.stack.XDP(), netstack.XDPGeneric
	case HookXDPOffload:
		if d.dev == nil {
			return nil, fmt.Errorf("syrupd: host has no NIC for offload")
		}
		pt = d.dev.Offload()
	default:
		return nil, fmt.Errorf("syrupd: hook %q has no dispatcher", hk)
	}
	disp.rootLink, err = pt.Attach(disp.root)
	if err != nil {
		return nil, err
	}
	if xdpMode != netstack.XDPNone {
		d.stack.SetXDPMode(xdpMode)
	}
	d.dispatch[hk] = disp
	return disp, nil
}

// newDispatcher generates, verifies and binds the root program, which
// creates the two maps it declares. The root is ordinary verified
// bytecode — the daemon enjoys no special VM privileges.
func newDispatcher(hk Hook) (*dispatcher, error) {
	specs := []ebpf.MapSpec{{
		Name: fmt.Sprintf("syrupd-%s-ports", hk), Type: ebpf.MapHash,
		KeySize: 4, ValueSize: 8, MaxEntries: dispatcherSlots,
	}, {
		Name: fmt.Sprintf("syrupd-%s-progs", hk), Type: ebpf.MapProgArray,
		KeySize: 4, ValueSize: 4, MaxEntries: dispatcherSlots,
	}}
	insns := slices.Concat([]ebpf.Instruction{
		ebpf.MovReg(ebpf.R6, ebpf.R1),                  // ctx, callee-saved across helper calls
		ebpf.Ldx(4, ebpf.R2, ebpf.R1, ebpf.CtxOffPort), // key = ctx->port
	}, ebpf.LoadMapFD(ebpf.R1, 0), []ebpf.Instruction{
		ebpf.Stx(4, ebpf.R10, ebpf.R2, -4),
		ebpf.MovReg(ebpf.R2, ebpf.R10),
		ebpf.ALUImm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpEq, ebpf.R0, 0, 5), // miss -> pass (skip 5 insns)
		ebpf.Ldx(8, ebpf.R3, ebpf.R0, 0),       // slot
		ebpf.MovReg(ebpf.R1, ebpf.R6),          // ctx
	}, ebpf.LoadMapFD(ebpf.R2, 1), []ebpf.Instruction{
		ebpf.Call(ebpf.HelperTailCall),
		// Tail call only returns on failure (e.g., slot cleared): pass.
		ebpf.MovImm(ebpf.R0, -1), // PASS
		ebpf.Exit(),
	})
	v, err := ebpf.Verify(fmt.Sprintf("syrupd-dispatch-%s", hk), &ebpf.AsmFile{Maps: specs, Insns: insns})
	if err != nil {
		return nil, err
	}
	root, maps, err := v.Bind(nil)
	if err != nil {
		return nil, err
	}
	return &dispatcher{hook: hk, root: root, portMap: maps[specs[0].Name], progArray: maps[specs[1].Name]}, nil
}

// slot is a deployment at a device-wide hook: one PROG_ARRAY entry of the
// hook's dispatcher, with the app's ports mapped to it.
type slot struct {
	disp  *dispatcher
	index uint32
	ports []uint16
	prog  *ebpf.Program
	// retired counts the generations set swapped out: unlike a hook.Link,
	// a PROG_ARRAY entry keeps no count of its own across a replace.
	retired ebpf.Stats
}

// claim takes the lowest free slot for app and maps the app's ports to
// it.
func (disp *dispatcher) claim(app *App) (*slot, error) {
	if len(app.Ports) == 0 {
		return nil, fmt.Errorf("syrupd: app %d owns no ports", app.ID)
	}
	i := slices.Index(disp.held[:], false)
	if i < 0 {
		return nil, fmt.Errorf("syrupd: %s dispatcher full", disp.hook)
	}
	for _, port := range app.Ports {
		if err := disp.portMap.UpdateUint64(uint32(port), uint64(i)); err != nil {
			return nil, err
		}
	}
	disp.held[i] = true
	return &slot{disp: disp, index: uint32(i), ports: app.Ports}, nil
}

// set installs prog in the slot. Over an earlier program it is the
// dispatcher-level Link.Replace: packets between event-loop callbacks see
// either the old or the new program, never a hole.
func (s *slot) set(prog *ebpf.Program) {
	if s.prog != nil {
		st := s.prog.Stats()
		s.retired.Runs += st.Runs
		s.retired.Faults += st.Faults
	}
	s.prog = prog
	if err := s.disp.progArray.UpdateProg(s.index, prog); err != nil {
		panic(err) // unreachable: claim took an index below dispatcherSlots
	}
}

func (s *slot) program() *ebpf.Program { return s.prog }
func (s *slot) label() string          { return s.prog.Name() }

// stats reads the tail-called programs' own counters: the VM charges a
// run, and a runtime error, to the program whose instructions ran, so the
// numbers are the tenant's even though the hook point belongs to the root.
func (s *slot) stats() (runs, faults uint64) {
	st := s.prog.Stats()
	return s.retired.Runs + st.Runs, s.retired.Faults + st.Faults
}

func (s *slot) target() string {
	return fmt.Sprintf("%s[slot %d]", s.disp.rootLink.Point().Name(), s.index)
}

// close clears the slot (the root's tail call then misses and PASSes),
// unmaps the app's ports and frees the slot. The root stays attached, so
// other tenants are untouched.
func (s *slot) close() {
	if err := s.disp.progArray.UpdateProg(s.index, nil); err != nil {
		panic(err) // unreachable: claim took an index below dispatcherSlots
	}
	for _, port := range s.ports {
		var key [4]byte
		binary.LittleEndian.PutUint32(key[:], uint32(port))
		s.disp.portMap.Delete(key[:]) // absent entries are fine
	}
	s.disp.held[s.index] = false
}
