package ebpf

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
