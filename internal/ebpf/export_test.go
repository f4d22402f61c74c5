package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Kind is the walker's op kind, opened to the external test package so
// it can assert which slots the decoder pinned.
type Kind = opKind

const (
	KindStackLoad  = kStackLoad
	KindStackStore = kStackStore
	KindMapLookup  = kMapLookup
)

// CtxLoad reports whether k is one of the pinned context-field loads.
func (k Kind) CtxLoad() bool { return k >= kCtxData && k <= kCtxQueue }

// Pinned reports whether only a decoding that reads Facts can choose k.
func (k Kind) Pinned() bool { return k >= kPinned }

// Facts returns the verifier's per-PC fact table for the loaded stream
// (nil for NoVerify loads).
func (p *Program) Facts() *Facts { return p.facts }

// Kinds decodes p the way Run does (pinned) or the way the reference does
// (plain) and returns the kind chosen for every slot.
func (p *Program) Kinds(pinned bool) []Kind {
	var facts *Facts
	if pinned {
		facts = p.facts
	}
	code := decode(p, facts)
	kinds := make([]Kind, len(code))
	for i := range code {
		kinds[i] = code[i].kind
	}
	return kinds
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
