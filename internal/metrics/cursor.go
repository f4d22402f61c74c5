package metrics

// Cursor is a private delta baseline over the counter registry. Every
// consumer that wants interval rates (the obs sampler, a syrupd stats
// client, the adapt controller) owns its own Cursor, so concurrent
// consumers each see the full increase between their own calls instead
// of stealing increments from one another the way a baseline shared
// through the counter itself would.
//
// A Cursor is not safe for concurrent use — it models one consumer.
type Cursor struct {
	prev map[*Counter]uint64
}

// NewCursor returns a cursor whose first Delta reports each counter's
// increase since process start (an all-zero baseline).
func NewCursor() *Cursor { return &Cursor{prev: make(map[*Counter]uint64)} }

// Delta returns every registered counter's increase since this cursor's
// previous Delta (or since creation, on the first call) and advances the
// cursor's private baseline. Counters themselves are never mutated, so
// any number of cursors — and plain Counters()/Load() readers — coexist
// without interference.
func (cu *Cursor) Delta() map[string]uint64 {
	registryMu.Lock()
	counters := make([]*Counter, 0, len(registry))
	for _, c := range registry {
		counters = append(counters, c)
	}
	registryMu.Unlock()
	out := make(map[string]uint64, len(counters))
	for _, c := range counters {
		cur := c.Load()
		out[c.name] = cur - cu.prev[c]
		cu.prev[c] = cur
	}
	return out
}

// DeltaOf returns one counter's increase since this cursor's previous
// observation of it (Delta or DeltaOf), advancing only that counter's
// baseline.
func (cu *Cursor) DeltaOf(c *Counter) uint64 {
	cur := c.Load()
	d := cur - cu.prev[c]
	cu.prev[c] = cur
	return d
}
