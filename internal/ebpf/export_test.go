package ebpf

import (
	"encoding/binary"
	"fmt"
)

// RunInterp runs the reference: the same walker over the same code on
// fresh zeroed state. Differential tests use it as the oracle for Run's
// reused, unscrubbed state.
func (p *Program) RunInterp(ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, st, err := p.runRef(ctx, env)
	return uint32(ret), st, err
}

func (p *Program) runRef(ctx *Ctx, env *Env) (uint64, ExecStats, error) {
	rs := new(runState)
	ret, err := p.exec(rs, ctx, env)
	return ret, rs.stats, err
}

// Dump renders every slot of an array map and every entry of a hash map as
// hex value by hex key: the final map state the differential tests compare.
func (m *Map) Dump() map[string]string {
	out := map[string]string{}
	switch m.spec.Type {
	case MapArray:
		vs := int(m.spec.ValueSize)
		for i := range int(m.spec.MaxEntries) {
			key := binary.LittleEndian.AppendUint32(nil, uint32(i))
			out[fmt.Sprintf("%x", key)] = fmt.Sprintf("%x", m.arrayData[i*vs:(i+1)*vs])
		}
	case MapHash:
		for k, v := range m.hashData {
			out[fmt.Sprintf("%x", k)] = fmt.Sprintf("%x", v)
		}
	}
	return out
}
