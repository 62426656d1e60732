// Package wallprof is the simulator's wall-clock self-profiling layer:
// it measures where the *host's* time goes while the deterministic
// engine advances *simulated* time. It implements sim.WallProbe (per
// engine) and collects runner phase timings (per cell), merging both
// into a Report that renders as a utilization table, a folded-stack
// flamegraph, or a wall-time Chrome trace.
//
// Contracts the layer lives under:
//
//   - The walltime analyzer bans time.* in simulation packages, so the
//     clock lives here (an explicitly wall-clock-allowed package) and
//     is injected: internal/sim only emits timing-free callbacks.
//   - The whole layer is a pure side channel: it observes wall time
//     and operation counts but never feeds anything back, so every
//     simulated artifact is byte-identical with profiling on or off
//     (enforced by the sweep package's wallprof side-channel test).
package wallprof

import (
	"sort"
	"sync"
	"time"

	"pvcsim/internal/obs"
)

// Clock returns monotonic nanoseconds since an arbitrary origin. One
// clock is shared by everything a Collector owns, so spans from
// different cells share a time base and compose into one
// coherent timeline.
type Clock func() int64

// wallClock builds the default Clock from the runtime's monotonic
// reading, anchored at creation.
func wallClock() Clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// Collector accumulates wall-clock self-profiling across the cells of
// one run. Attach it to a runner with Runner.ProfileWall; the runner
// hands each computed cell a CellProf, whose EngineProbe is installed
// on every machine and cluster the cell builds. Cell is safe for
// concurrent use by runner workers; each CellProf is then written only
// by the goroutine computing that cell (the runner memo guarantees one
// computer per key).
type Collector struct {
	clock    Clock
	timeline bool

	mu       sync.Mutex
	cells    map[obs.Key]*CellProf
	exportNS int64
}

// New builds a collector on the runtime monotonic clock.
func New() *Collector { return NewWithClock(wallClock()) }

// NewWithClock builds a collector on an injected clock — tests use a
// counter to make every duration deterministic.
func NewWithClock(c Clock) *Collector {
	return &Collector{clock: c, cells: map[obs.Key]*CellProf{}}
}

// EnableTimeline buffers individual engine-run and phase intervals (not
// just aggregates) so the report can render a wall-time Chrome trace.
// Costs memory proportional to the number of engine runs; leave off
// unless a -wall-trace export was requested.
func (c *Collector) EnableTimeline() { c.timeline = true }

// Cell returns the cell's profile, creating it on first use.
func (c *Collector) Cell(k obs.Key) *CellProf {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp, ok := c.cells[k]
	if !ok {
		cp = &CellProf{key: k, clock: c.clock, timeline: c.timeline}
		c.cells[k] = cp
	}
	return cp
}

// Now reads the collector's clock; pair it with AddExportNS.
func (c *Collector) Now() int64 { return c.clock() }

// AddExportNS folds the run-level export phase (writing trace/metrics/
// profile files) into the collector: a raw nanosecond interval measured
// with the collector's own clock (Now readings).
func (c *Collector) AddExportNS(ns int64) {
	c.mu.Lock()
	c.exportNS += ns
	c.mu.Unlock()
}

// CellProf is one cell's wall-clock profile: the runner phase timings
// plus the engine probe. Phase adders are called by the goroutine
// computing the cell; cache-hit adders may race between waiters and
// take the mutex.
type CellProf struct {
	key      obs.Key
	clock    Clock
	timeline bool

	mu          sync.Mutex
	buildNS     int64
	simNS       int64
	cacheWaitNS int64
	cacheHits   int64
	phases      []phaseSpan // timeline only
	probe       *EngineProbe
}

// phaseSpan is one timeline interval of a runner phase.
type phaseSpan struct {
	name       string
	start, end int64
}

// addPhase accumulates a phase duration (and its interval in timeline
// mode). start is a clock reading taken by the caller via Now; the
// returned end reading lets the next phase start exactly where this one
// ended, so alternating phases tile an interval without gap or overlap.
func (cp *CellProf) addPhase(name string, total *int64, start int64) (end int64) {
	end = cp.clock()
	cp.mu.Lock()
	*total += end - start
	if cp.timeline {
		cp.phases = append(cp.phases, phaseSpan{name: name, start: start, end: end})
	}
	cp.mu.Unlock()
	return end
}

// Now reads the collector's clock; pair it with AddBuild/AddSimulate.
func (cp *CellProf) Now() int64 { return cp.clock() }

// AddBuild records machine-construction wall time since start (a Now
// reading) and returns the end reading.
func (cp *CellProf) AddBuild(start int64) int64 { return cp.addPhase("build", &cp.buildNS, start) }

// AddSimulate records workload-execution wall time since start and
// returns the end reading.
func (cp *CellProf) AddSimulate(start int64) int64 {
	return cp.addPhase("simulate", &cp.simNS, start)
}

// AddCacheHit records one memo-cache hit and the wall time the waiter
// spent blocked on the computing goroutine.
func (cp *CellProf) AddCacheHit(start int64) {
	end := cp.clock()
	cp.mu.Lock()
	cp.cacheHits++
	cp.cacheWaitNS += end - start
	cp.mu.Unlock()
}

// Probe returns the cell's engine probe (created on first use),
// suitable for sim.Engine.SetWallProbe. A cell that builds several
// engines may install the same probe on each; runs accumulate.
func (cp *CellProf) Probe() *EngineProbe {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.probe == nil {
		cp.probe = &EngineProbe{clock: cp.clock, timeline: cp.timeline}
	}
	return cp.probe
}

// EngineProbe implements sim.WallProbe. The engine calls it from the
// goroutine driving the cell's simulation, one callback at a time, so it
// needs no locking; Report reads it after the run.
type EngineProbe struct {
	clock    Clock
	timeline bool

	runs   int64
	runT0  int64
	runNS  int64
	events int64
	spans  []span // timeline only
}

// span is one timeline interval.
type span struct {
	start, end int64
	events     int
}

// RunStart implements sim.WallProbe.
func (p *EngineProbe) RunStart() { p.runT0 = p.clock() }

// RunEnd implements sim.WallProbe.
func (p *EngineProbe) RunEnd(events int) {
	now := p.clock()
	p.runs++
	p.runNS += now - p.runT0
	p.events += int64(events)
	if p.timeline {
		p.spans = append(p.spans, span{start: p.runT0, end: now, events: events})
	}
}

// sortedCells snapshots the cell map in deterministic (workload,
// system, params) order — map iteration must never pick report order.
func (c *Collector) sortedCells() []*CellProf {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*CellProf, 0, len(c.cells))
	for _, cp := range c.cells {
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Params < b.Params
	})
	return out
}
