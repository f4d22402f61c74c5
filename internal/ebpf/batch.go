package ebpf

// Batch execution: the NAPI/XDP-bulk analogue for the VM. A burst of
// invocations of one program shares a single pooled runState — one pool
// get/put per burst instead of one per run — while every per-run effect
// (register/stack reset, stats, instret and fault charging, tail-call
// handling) stays bit-identical to calling Run once per input.

// BatchRun executes a burst of invocations of one program. Obtain one with
// BeginBatch, call Run once per input, then End to release the pooled
// state. A BatchRun is single-threaded, like the event loop that drives
// it; zero value is invalid.
type BatchRun struct {
	p  *Program
	rs *runState
}

// BeginBatch starts a burst of runs of p. The returned value borrows one
// pooled runState for the whole burst.
func (p *Program) BeginBatch() BatchRun {
	return BatchRun{p: p, rs: runStatePool.Get().(*runState)}
}

// Run executes one invocation of the burst against ctx, equivalent in
// every observable way (verdict, stats, accounting, errors) to
// Program.Run(ctx, env).
func (b *BatchRun) Run(ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, err := b.p.execCompiled(b.rs, ctx, env)
	return uint32(ret), b.rs.stats, err
}

// End returns the pooled state. Idempotent; the BatchRun must not be used
// afterwards.
func (b *BatchRun) End() {
	if b.rs != nil {
		putRunState(b.rs)
		b.rs = nil
	}
}
