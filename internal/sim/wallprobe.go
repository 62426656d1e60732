// Wall-clock self-profiling hooks. The engine itself must never read
// the wall clock — the walltime analyzer bans time.* in simulation
// packages, and for good reason: a wall-clock read that leaked into an
// event decision would destroy determinism. But knowing where the
// engine's *own* wall time goes (busy time per run, events per run) is
// exactly what profile-guided optimization of the kernel needs. The
// resolution is inversion: the engine emits timing-free callbacks
// through the WallProbe interface, and the implementation
// (internal/wallprof, a wall-clock-allowed package) reads the clock on
// its own side. No time.* selector ever appears in this package, and a
// nil probe costs one pointer compare per hook site — nothing allocates
// and no callback fires.
package sim

// WallProbe receives the engine's self-profiling callbacks. All values
// are counts; the implementation supplies its own clock. Callbacks run
// on whichever goroutine is driving the engine, one at a time.
type WallProbe interface {
	// RunStart begins a Run. It may be called multiple times
	// per engine; implementations accumulate.
	RunStart()
	// RunEnd closes the span opened by the last RunStart; events is the
	// number of events the run processed.
	RunEnd(events int)
}

// SetWallProbe installs the engine's wall-clock self-profiling probe
// (nil disables, the default). The probe is a pure side channel: it
// observes wall time and operation counts but can never influence
// event order, so simulated results are byte-identical with any probe
// installed or none. Install before Run.
func (e *Engine) SetWallProbe(p WallProbe) { e.probe = p }
