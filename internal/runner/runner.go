// Package runner executes (system × workload) cells from the workload
// registry across a worker pool. Every cell gets its own node spec and
// observers in a gpusim.Target and builds only the machine or cluster it
// drives, so no state is shared between cells and parallel runs are
// bit-identical to serial ones; an in-process memo cache keyed by
// (system, workload, params) guarantees no cell is ever simulated twice,
// however many tables and figures view its result.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/obs"
	"pvcsim/internal/topology"
	"pvcsim/internal/wallprof"
	"pvcsim/internal/workload"
)

// Cell is one (system, workload) execution unit.
type Cell struct {
	System   topology.System
	Workload workload.Workload
}

// CellResult is the outcome of one cell: the workload result or error,
// wall-clock timing, and whether the memo cache served it.
type CellResult struct {
	System  topology.System
	Name    string
	Result  workload.Result
	Err     error
	Elapsed time.Duration
	Cached  bool
}

// key identifies a memo entry: system, workload name, and parameters.
type key struct {
	sys    topology.System
	name   string
	params string
}

// entry is one memoized computation; done closes when res/err are
// final. cancelled marks a computation abandoned because its context
// was cancelled: the entry is removed from the memo before done closes,
// and waiters re-enter the cache instead of adopting the stale error.
type entry struct {
	done      chan struct{}
	res       workload.Result
	err       error
	elapsed   time.Duration
	cancelled bool
}

// PanicError is the error a panicking Workload.Run is converted into:
// the panic value plus the goroutine stack at the point of the panic.
// The panic is contained to its cell — the process survives and
// concurrent waiters on the same key receive this error.
type PanicError struct {
	Workload string
	System   string
	Value    any
	Stack    []byte
}

// Error names the cell, the panic value, and the stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: %s on %s panicked: %v\n%s", e.Workload, e.System, e.Value, e.Stack)
}

// Runner is a memoizing parallel executor. The zero value is not usable;
// call New.
type Runner struct {
	jobs int

	mu    sync.Mutex
	memo  map[key]*entry
	col   *obs.Collector
	wall  *wallprof.Collector
	hooks []Hooks
}

// New builds a runner with the given worker count; jobs <= 0 selects
// runtime.NumCPU().
func New(jobs int) *Runner {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	return &Runner{jobs: jobs, memo: map[key]*entry{}}
}

// Jobs returns the worker count.
func (r *Runner) Jobs() int { return r.jobs }

// Observe attaches a collector: every computed cell records its spans
// and counters into collector.Cell(key), and memo hits/misses are
// tallied. Pass nil to detach.
func (r *Runner) Observe(c *obs.Collector) { r.col = c }

// Collector returns the attached collector (nil when disabled).
func (r *Runner) Collector() *obs.Collector { return r.col }

// ProfileWall attaches a wall-clock self-profiling collector: every
// computed cell gets build / simulate phase timings (build covers each
// machine or cluster the workload builds) plus an engine probe on
// everything it builds, and cache hits record the waiter's blocked
// time. Like obs and the lifecycle hooks this is a pure side channel —
// simulated results and exports are byte-identical with or without it.
// Pass nil to detach.
func (r *Runner) ProfileWall(c *wallprof.Collector) { r.wall = c }

// WallProfiler returns the attached wall-clock collector (nil when
// disabled).
func (r *Runner) WallProfiler() *wallprof.Collector { return r.wall }

// RunOne executes one cell (or returns its memoized result). The first
// caller for a key computes it; concurrent callers for the same key wait
// for that computation rather than duplicating it.
func (r *Runner) RunOne(ctx context.Context, sys topology.System, w workload.Workload) (workload.Result, error) {
	res := r.cell(ctx, sys, w)
	return res.Result, res.Err
}

// cell runs one cell through the memo cache. Lifecycle hooks fire in
// pairs: every cell that starts also finishes, whatever path it takes.
func (r *Runner) cell(ctx context.Context, sys topology.System, w workload.Workload) CellResult {
	out := CellResult{System: sys, Name: w.Name()}
	r.hookStart(sys.String(), w.Name())
	if !workload.Supports(w, sys) {
		out.Err = fmt.Errorf("runner: workload %q does not run on %s (supported: %v)", w.Name(), sys, w.Systems())
		r.hookFinish(sys.String(), w.Name(), 0, false, out.Err)
		return out
	}
	k := key{sys: sys, name: w.Name(), params: workload.ParamsOf(w)}

	for {
		r.mu.Lock()
		e, hit := r.memo[k]
		if !hit {
			e = &entry{done: make(chan struct{})}
			r.memo[k] = e
		}
		r.mu.Unlock()

		if hit {
			var cp *wallprof.CellProf
			var waitT0 int64
			if r.wall != nil {
				cp = r.wall.Cell(obs.Key{Workload: w.Name(), System: sys.String(), Params: k.params})
				waitT0 = cp.Now()
			}
			select {
			case <-e.done:
				if e.cancelled {
					// The first caller's context was cancelled before the
					// computation finished; its entry is already out of
					// the memo. Re-enter the cache (and possibly become
					// the new first caller) unless we are cancelled too.
					if err := ctx.Err(); err != nil {
						out.Err = err
						r.hookFinish(sys.String(), w.Name(), 0, false, out.Err)
						return out
					}
					continue
				}
				if r.col != nil {
					r.col.MemoHit()
				}
				out.Result, out.Err, out.Elapsed, out.Cached = e.res, e.err, e.elapsed, true
				if cp != nil {
					cp.AddCacheHit(waitT0)
				}
			case <-ctx.Done():
				out.Err = ctx.Err()
			}
			r.hookFinish(sys.String(), w.Name(), out.Elapsed, out.Cached, out.Err)
			return out
		}

		// First caller for the key: compute. The deferred block settles
		// the entry on every path — including a panic escaping compute's
		// own recovery — so e.done can never be left open to deadlock
		// waiters.
		start := time.Now()
		func() {
			defer func() {
				e.elapsed = time.Since(start)
				if e.err != nil && ctx.Err() != nil {
					// Cancelled, not failed: drop the entry (before the
					// close, so retrying waiters can't re-read it) and
					// mark it so waiters retry instead of adopting it.
					e.cancelled = true
					r.mu.Lock()
					delete(r.memo, k)
					r.mu.Unlock()
				}
				close(e.done)
			}()
			e.res, e.err = r.compute(ctx, sys, w)
		}()
		if r.col != nil {
			r.col.MemoMiss()
			r.col.Finish(obs.Key{Workload: w.Name(), System: sys.String(), Params: k.params}, e.elapsed, e.err)
		}
		var pe *PanicError
		if errors.As(e.err, &pe) {
			r.hookPanic(sys.String(), w.Name(), e.err)
		}
		out.Result, out.Err, out.Elapsed = e.res, e.err, e.elapsed
		r.hookFinish(sys.String(), w.Name(), out.Elapsed, false, out.Err)
		return out
	}
}

// compute runs the workload against the cell's own build target: a
// fresh node spec plus the cell's recorder, engine probe and build-phase
// hook, so the workload builds only the machine or cluster it drives.
// With wall profiling on, the compute interval is split into build
// phases (each machine or cluster built) and simulate phases (all the
// rest), which tile it. A panic in the workload is recovered into a
// *PanicError carrying the panic value and stack, so one broken cell
// cannot take down the process.
func (r *Runner) compute(ctx context.Context, sys topology.System, w workload.Workload) (res workload.Result, err error) {
	if err := ctx.Err(); err != nil {
		return workload.Result{}, err
	}
	k := obs.Key{Workload: w.Name(), System: sys.String(), Params: workload.ParamsOf(w)}
	t := &gpusim.Target{Node: topology.NewNode(sys)}
	if r.col != nil {
		t.Obs = r.col.Cell(k)
	}
	defer func() {
		if p := recover(); p != nil {
			res = workload.Result{}
			err = &PanicError{Workload: w.Name(), System: sys.String(), Value: p, Stack: debug.Stack()}
		}
	}()
	if r.wall != nil {
		cp := r.wall.Cell(k)
		t.Probe = cp.Probe()
		seg := cp.Now()
		t.OnBuild = func() func() {
			buildT0 := cp.AddSimulate(seg)
			return func() { seg = cp.AddBuild(buildT0) }
		}
		// Registered after the recover defer, so it runs first and the
		// last simulate phase is recorded even when the workload panics.
		defer func() { cp.AddSimulate(seg) }()
	}
	res, err = w.Run(ctx, t)
	if err != nil {
		return workload.Result{}, fmt.Errorf("runner: %s on %s: %w", w.Name(), sys, err)
	}
	return res, nil
}

// Run executes the cells across the worker pool and returns results in
// input order regardless of completion order.
func (r *Runner) Run(ctx context.Context, cells []Cell) []CellResult {
	results := make([]CellResult, len(cells))
	// Queue the whole batch up front so hooks see depth jump to N and
	// drain as workers pick cells up. Cells backfilled with a
	// cancellation error below were queued but never start; consumers
	// deriving a depth gauge must tolerate that on cancelled runs.
	for _, c := range cells {
		r.hookQueued(c.System.String(), c.Workload.Name())
	}
	workers := r.jobs
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				c := cells[i]
				if err := ctx.Err(); err != nil {
					results[i] = CellResult{System: c.System, Name: c.Workload.Name(), Err: err}
					continue
				}
				results[i] = r.cell(ctx, c.System, c.Workload)
			}
		}()
	}
	// Feed indices with a ctx select: with saturated workers and a
	// cancelled context a bare send could block the producer forever.
	// Indices never sent are backfilled with the cancellation error —
	// the workers only ever touch indices they received, so there is no
	// overlap.
send:
	for i := range cells {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(cells); j++ {
				results[j] = CellResult{System: cells[j].System, Name: cells[j].Workload.Name(), Err: ctx.Err()}
			}
			break send
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// Cells expands a registry into every (workload × supported system) cell
// in registration order.
func Cells(reg *workload.Registry) []Cell {
	var out []Cell
	for _, w := range reg.Workloads() {
		for _, sys := range w.Systems() {
			out = append(out, Cell{System: sys, Workload: w})
		}
	}
	return out
}

// RunAll executes every cell of the registry.
func (r *Runner) RunAll(ctx context.Context, reg *workload.Registry) []CellResult {
	return r.Run(ctx, Cells(reg))
}
