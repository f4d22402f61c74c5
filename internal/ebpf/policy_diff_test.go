package ebpf_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"syrup/internal/ebpf"
	"syrup/internal/policy"
)

// policyWorld instantiates one shipped policy over fresh, identically
// seeded maps.
func policyWorld(t *testing.T, name string) (*ebpf.Program, []ebpf.Instruction, map[string]*ebpf.Map) {
	t.Helper()
	f, err := ebpf.Assemble(policy.MustSource(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	insns, maps, table, err := f.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range maps {
		spec := m.Spec()
		if spec.Type != ebpf.MapArray || spec.KeySize != 4 || spec.ValueSize != 8 {
			continue
		}
		for k := uint32(0); k < min(spec.MaxEntries, 8); k++ {
			if err := m.UpdateUint64(k, uint64(k)*7+3); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := ebpf.Load(name, insns, ebpf.LoadOptions{MapTable: table})
	if err != nil {
		t.Fatal(err)
	}
	return p, insns, maps
}

// policyEnv gives each world its own helper state, so PRNG draws and the
// clock stay in lockstep across the worlds.
func policyEnv() *ebpf.Env {
	rng := rand.New(rand.NewPCG(7, 11))
	now := uint64(0)
	return &ebpf.Env{
		Prandom: rng.Uint32,
		Ktime:   func() uint64 { now += 1000; return now },
		CPUID:   1,
	}
}

func dumpMaps(maps map[string]*ebpf.Map) map[string]string {
	out := make(map[string]string)
	for name, m := range maps {
		for k, v := range m.Dump() {
			out[name+"/"+k] = v
		}
	}
	return out
}

// TestShippedPoliciesMatchReference is the differential over the policies
// the figures actually run: the reference decoding vs Run, each on its
// own loaded copy of the policy, across a seeded GET/SCAN/PUT header mix
// with truncated and empty packets. Verdicts, errors, packet bytes, full
// ExecStats, instret/runs/faults charging and final map contents must
// agree.
func TestShippedPoliciesMatchReference(t *testing.T) {
	const packets = 12_000
	types := []uint64{policy.ReqGET, policy.ReqSCAN, policy.ReqPUT}
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			prog, _, mapsJ := policyWorld(t, name)
			ref, _, mapsR := policyWorld(t, name)

			rng := rand.New(rand.NewPCG(0x5eed, uint64(len(name))))
			envJ, envR := policyEnv(), policyEnv()
			for i := 0; i < packets; i++ {
				keyHash := rng.Uint32()
				payload := policy.EncodeHeader(types[rng.IntN(len(types))], rng.Uint32N(8), keyHash, uint64(i))
				wire := make([]byte, 8+len(payload)) // UDP header, then the app header
				copy(wire[8:], payload)
				switch rng.IntN(16) {
				case 0:
					wire = wire[:0]
				case 1:
					wire = wire[:rng.IntN(len(wire))]
				}
				ctxJ := &ebpf.Ctx{Packet: bytes.Clone(wire), Hash: keyHash, Port: 9000, Queue: rng.Uint32N(4)}
				ctxR := &ebpf.Ctx{Packet: bytes.Clone(wire), Hash: ctxJ.Hash, Port: ctxJ.Port, Queue: ctxJ.Queue}

				vJ, stJ, errJ := prog.Run(ctxJ, envJ)
				vR, stR, errR := ref.RunInterp(ctxR, envR)
				if fmt.Sprint(errJ) != fmt.Sprint(errR) || vJ != vR {
					t.Fatalf("packet %d (%d bytes): run (%d, %v), reference (%d, %v)\n%s", i, len(wire), vJ, errJ, vR, errR, prog.Disassemble())
				}
				if stJ != stR {
					t.Fatalf("packet %d: stats divergence: run %+v reference %+v", i, stJ, stR)
				}
				if !bytes.Equal(ctxJ.Packet, ctxR.Packet) {
					t.Fatalf("packet %d: packet mutation divergence", i)
				}
			}
			if prog.Stats() != ref.Stats() {
				t.Fatalf("program charging divergence: run %+v reference %+v", prog.Stats(), ref.Stats())
			}
			dj, dr := dumpMaps(mapsJ), dumpMaps(mapsR)
			if len(dj) != len(dr) {
				t.Fatalf("map entry counts diverged: run %d reference %d", len(dj), len(dr))
			}
			for k, v := range dj {
				if dr[k] != v {
					t.Fatalf("map entry %s: run %s reference %s", k, v, dr[k])
				}
			}
		})
	}
}

// TestShippedPoliciesPinHotPath: both decodings agree on every observable,
// so a pinned kind that silently stops being chosen passes every
// differential gate and shows up only as wall-clock. This holds the
// decoder to the facts instead: in every shipped policy each ctx load, each
// constant-offset stack load and store, and each map_lookup_elem whose
// handle and stack key the verifier knows must decode to its pinned kind —
// and the plain decoding of the same stream to no pinned kind at all.
func TestShippedPoliciesPinHotPath(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			p, insns, _ := policyWorld(t, name)
			facts, pinned := p.Facts(), p.Kinds(true)
			if facts.Len() != p.Len() {
				t.Fatalf("fact table covers %d slots, program has %d", facts.Len(), p.Len())
			}
			for i, k := range p.Kinds(false) {
				if k.Pinned() {
					t.Errorf("insn %d: the plain decoding chose pinned kind %d", i, k)
				}
			}
			constStack := func(i int, reg uint8) bool {
				f := facts.Reg(i, reg)
				return f.Type == ebpf.FactStack && f.OffKnown
			}
			checked := 0
			for i, ins := range insns {
				var want string
				var ok bool
				switch op := ins.Op & 0xf0; {
				case ins.Class() == ebpf.ClassLDX && facts.Reg(i, ins.Src).Type == ebpf.FactCtx:
					want, ok = "a ctx field load", pinned[i].CtxLoad()
				case ins.Class() == ebpf.ClassLDX && constStack(i, ins.Src):
					want, ok = "a stack load", pinned[i] == ebpf.KindStackLoad
				case ins.Class() == ebpf.ClassST && constStack(i, ins.Dst),
					ins.Class() == ebpf.ClassSTX && ins.Op&0xe0 == ebpf.ModeMEM && constStack(i, ins.Dst):
					want, ok = "a stack store", pinned[i] == ebpf.KindStackStore
				case ins.Class() == ebpf.ClassJMP && op == ebpf.JmpCall && ins.Imm == ebpf.HelperMapLookup &&
					facts.Reg(i, ebpf.R1).MapIdx >= 0 && constStack(i, ebpf.R2):
					want, ok = "a map lookup", pinned[i] == ebpf.KindMapLookup
				default:
					continue
				}
				checked++
				if !ok {
					t.Errorf("insn %d (%s): want %s pinned, decoded to kind %d", i, ebpf.Disassemble(ins, nil), want, pinned[i])
				}
			}
			if checked == 0 {
				t.Fatal("no pinnable instruction in a shipped policy: the test checks nothing")
			}
		})
	}
}
