package ebpf

// RunState is the execution state (registers, stack, map-value regions,
// per-run accounting) of a caller that runs programs from one goroutine —
// a hook point — and reuses it for every run it makes, whichever program
// is installed at the time. The zero value is ready. Every per-run effect
// (reset, stats, instret and fault charging, tail-call handling) is the
// one Program.Run has; only where the state comes from differs: Program.Run
// is safe from any goroutine and borrows a state from a pool per call.
type RunState struct{ rs runState }

// Run executes one invocation of p against ctx on s, equivalent in every
// observable way (verdict, stats, accounting, errors) to p.Run(ctx, env).
func (s *RunState) Run(p *Program, ctx *Ctx, env *Env) (uint32, ExecStats, error) {
	ret, err := p.exec(&s.rs, ctx, env, false)
	return uint32(ret), s.rs.stats, err
}
