package runner

import (
	"sync/atomic"
	"time"
)

// Hooks receives wall-clock lifecycle callbacks from the runner: cells
// entering the pool, starting on a worker, finishing (with their memo
// disposition: served from the memo cache or computed), and recovering
// from a panic. It exists so services and CLIs can observe saturation,
// cache effectiveness, and failures live, without touching the simulation: a
// hook sees only wall-clock facts and identity strings, never simulated
// quantities, so attaching or detaching hooks cannot change any
// simulated output (enforced by TestHooksAreSideChannel in
// internal/telemetry).
//
// The method signatures use only standard-library types so consumers
// (internal/telemetry, cmd/pvcd) can satisfy the interface without
// importing this package. Implementations must be safe for concurrent
// use: the runner's workers invoke them in parallel.
type Hooks interface {
	// CellQueued fires once per cell when Run accepts it into the pool.
	// RunOne bypasses the queue and never fires it.
	CellQueued(system, workload string)
	// CellStart fires when a worker begins handling the cell — before
	// it is known whether the memo cache will serve it.
	CellStart(system, workload string)
	// CellFinish fires when the cell's result is final. wall is the
	// compute duration (for cached cells, the original computation's),
	// cached reports whether the memo cache served the cell instead of
	// computing it, and err carries the failure, if any.
	CellFinish(system, workload string, wall time.Duration, cached bool, err error)
	// CellPanic fires when a panicking workload was recovered into a
	// *PanicError; CellFinish follows with that error.
	CellPanic(system, workload string, err error)
}

// AddHooks attaches lifecycle hooks; every attached hook receives every
// event. Attach hooks before the first Run/RunOne call — the slice is
// not guarded against concurrent mutation.
func (r *Runner) AddHooks(h Hooks) {
	if h != nil {
		r.hooks = append(r.hooks, h)
	}
}

// The fan-out helpers keep call sites one line and free when no hooks
// are attached.

func (r *Runner) hookQueued(sys, name string) {
	for _, h := range r.hooks {
		h.CellQueued(sys, name)
	}
}

func (r *Runner) hookStart(sys, name string) {
	for _, h := range r.hooks {
		h.CellStart(sys, name)
	}
}

func (r *Runner) hookFinish(sys, name string, wall time.Duration, cached bool, err error) {
	for _, h := range r.hooks {
		h.CellFinish(sys, name, wall, cached, err)
	}
}

func (r *Runner) hookPanic(sys, name string, err error) {
	for _, h := range r.hooks {
		h.CellPanic(sys, name, err)
	}
}

// Stats is a Hooks implementation that tallies lifecycle events with
// atomic counters. The CLIs attach one per invocation and print it in
// the observability summary; its counts are deterministic for a given
// cell set (the memo computes each distinct key exactly once however
// many workers race for it).
type Stats struct {
	queued, started, finished, cacheHits, panics atomic.Int64
}

// CellQueued implements Hooks.
func (s *Stats) CellQueued(system, workload string) { s.queued.Add(1) }

// CellStart implements Hooks.
func (s *Stats) CellStart(system, workload string) { s.started.Add(1) }

// CellFinish implements Hooks.
func (s *Stats) CellFinish(system, workload string, wall time.Duration, cached bool, err error) {
	s.finished.Add(1)
	if cached {
		s.cacheHits.Add(1)
	}
}

// CellPanic implements Hooks.
func (s *Stats) CellPanic(system, workload string, err error) { s.panics.Add(1) }

// Queued returns the number of cells accepted by Run.
func (s *Stats) Queued() int64 { return s.queued.Load() }

// Started returns the number of cells workers began handling.
func (s *Stats) Started() int64 { return s.started.Load() }

// Finished returns the number of cells with a final result.
func (s *Stats) Finished() int64 { return s.finished.Load() }

// CacheHits returns the number of cells served from the memo cache.
func (s *Stats) CacheHits() int64 { return s.cacheHits.Load() }

// Computed returns the number of cells actually simulated.
func (s *Stats) Computed() int64 { return s.finished.Load() - s.cacheHits.Load() }

// Panics returns the number of recovered workload panics.
func (s *Stats) Panics() int64 { return s.panics.Load() }
