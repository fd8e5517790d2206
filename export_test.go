package nbqueue

// WithYieldHook installs a pre-access hook on algorithms that support one
// (see queue.Instr.Yield). Test-only: external tests use it to force
// scheduling points between atomic steps so contention is reproducible on
// a single CPU.
func WithYieldHook(f func()) Option { return func(c *config) { c.instr.Yield = f } }
