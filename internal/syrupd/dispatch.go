package syrupd

import (
	"encoding/binary"
	"fmt"

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
	nextSlot  uint32
	slotOf    map[uint32]uint32 // app id -> prog array slot
}

const dispatcherSlots = 64

// dispatcher returns (building and installing on first use) the hook's
// dispatcher.
func (d *Daemon) dispatcher(hk Hook) (*dispatcher, error) {
	if disp, ok := d.dispatch[hk]; ok {
		return disp, nil
	}
	portMap := ebpf.MustNewMap(ebpf.MapSpec{
		Name: fmt.Sprintf("syrupd-%s-ports", hk), Type: ebpf.MapHash,
		KeySize: 4, ValueSize: 8, MaxEntries: dispatcherSlots,
	})
	progArray := ebpf.MustNewMap(ebpf.MapSpec{
		Name: fmt.Sprintf("syrupd-%s-progs", hk), Type: ebpf.MapProgArray,
		KeySize: 4, ValueSize: 4, MaxEntries: dispatcherSlots,
	})
	root, err := d.buildRootDispatcher(string(hk), portMap, progArray)
	if err != nil {
		return nil, err
	}
	disp := &dispatcher{
		hook: hk, root: root, portMap: portMap, progArray: progArray,
		slotOf: make(map[uint32]uint32),
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
	disp.rootLink, err = pt.Attach(root)
	if err != nil {
		return nil, err
	}
	if xdpMode != netstack.XDPNone {
		d.stack.SetXDPMode(xdpMode)
	}
	d.dispatch[hk] = disp
	return disp, nil
}

// buildRootDispatcher generates and verifies the root program. It is
// ordinary verified bytecode — the daemon enjoys no special VM privileges.
func (d *Daemon) buildRootDispatcher(name string, portMap, progArray *ebpf.Map) (*ebpf.Program, error) {
	table := ebpf.NewMapTable()
	portFD := table.Register(portMap)
	progFD := table.Register(progArray)

	var insns []ebpf.Instruction
	// r6 = ctx (callee-saved across helper calls)
	insns = append(insns, ebpf.MovReg(ebpf.R6, ebpf.R1))
	// key = ctx->port
	insns = append(insns, ebpf.Ldx(4, ebpf.R2, ebpf.R1, ebpf.CtxOffPort))
	// The map handle is loaded before the key store so the store sits next
	// to the address math and the two compile to one closure.
	insns = append(insns, ebpf.LoadMapFD(ebpf.R1, portFD)...)
	insns = append(insns,
		ebpf.Stx(4, ebpf.R10, ebpf.R2, -4),
		ebpf.MovReg(ebpf.R2, ebpf.R10),
		ebpf.ALUImm(ebpf.ALUAdd, ebpf.R2, -4),
		ebpf.Call(ebpf.HelperMapLookup),
		ebpf.JmpImm(ebpf.JmpEq, ebpf.R0, 0, 5), // miss -> pass (skip 5 insns)
		ebpf.Ldx(8, ebpf.R3, ebpf.R0, 0),       // slot
		ebpf.MovReg(ebpf.R1, ebpf.R6),          // ctx
	)
	insns = append(insns, ebpf.LoadMapFD(ebpf.R2, progFD)...)
	insns = append(insns,
		ebpf.Call(ebpf.HelperTailCall),
		// Tail call only returns on failure (e.g., slot cleared): pass.
		ebpf.MovImm(ebpf.R0, -1), // PASS
		ebpf.Exit(),
	)
	return ebpf.Load("syrupd-dispatch-"+name, insns, ebpf.LoadOptions{MapTable: table})
}

// install binds an app's program into the dispatcher for all its ports.
// Re-installing overwrites the app's PROG_ARRAY slot in place — the
// dispatcher-level equivalent of Link.Replace: packets between event-loop
// callbacks see either the old or the new program, never a hole.
func (disp *dispatcher) install(app *App, prog *ebpf.Program) error {
	if len(app.Ports) == 0 {
		return fmt.Errorf("syrupd: app %d owns no ports", app.ID)
	}
	slot, ok := disp.slotOf[app.ID]
	if !ok {
		if disp.nextSlot >= dispatcherSlots {
			return fmt.Errorf("syrupd: %s dispatcher full", disp.hook)
		}
		slot = disp.nextSlot
		disp.nextSlot++
		disp.slotOf[app.ID] = slot
	}
	if err := disp.progArray.UpdateProg(slot, prog); err != nil {
		return err
	}
	for _, port := range app.Ports {
		if err := disp.portMap.UpdateUint64(uint32(port), uint64(slot)); err != nil {
			return err
		}
	}
	target := fmt.Sprintf("%s[slot %d]", disp.rootLink.Point().Name(), slot)
	app.recordSlot(disp.hook, target, disp, slot, prog)
	return nil
}

// remove tears an app out of the dispatcher: its PROG_ARRAY slot clears
// (the root's tail call then misses and PASSes) and its port entries
// disappear. The root stays attached, so other tenants are untouched.
func (disp *dispatcher) remove(app *App) {
	slot, ok := disp.slotOf[app.ID]
	if !ok {
		return
	}
	if err := disp.progArray.UpdateProg(slot, nil); err != nil {
		panic(err) // unreachable: slot index was validated at install
	}
	for _, port := range app.Ports {
		var key [4]byte
		binary.LittleEndian.PutUint32(key[:], uint32(port))
		_ = disp.portMap.Delete(key[:]) // absent entries are fine
	}
	delete(disp.slotOf, app.ID)
	// Slot indices are not reused; 64 slots outlast any simulated run.
}
