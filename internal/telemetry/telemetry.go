// Package telemetry is the live observability layer: a standard-
// library-only Prometheus-text-format metrics registry, slog plumbing
// that threads run IDs through contexts, and a runner lifecycle-hook
// adapter that turns cell events into counters, gauges, and latency
// histograms.
//
// Telemetry is a strict wall-clock side channel. It consumes the
// runner's Hooks callbacks — which carry only wall-clock durations and
// identity strings — and never touches the simulation, so every
// simulated artifact (tables, traces, metrics, profiles) is
// byte-identical with telemetry attached or not, and across any -jobs
// setting. TestHooksAreSideChannel enforces this. The existing
// internal/obs layer remains the *simulated-time* record; telemetry is
// its wall-clock complement for long-running services (cmd/pvcd) and
// CLI summaries.
//
// The full metric catalog, with types and labels, is documented in
// DESIGN.md §10.
package telemetry

import (
	"io"
	"sync"
	"time"
)

// WallBuckets are the histogram bounds (seconds) for per-cell
// wall-clock latency: the simulator computes most cells in well under a
// second, but saturated services and pathological workloads reach
// minutes.
var WallBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Telemetry bundles the registry with the simulator's standard metric
// set. One Telemetry instance is process-wide: pvcd scrapes it at
// /metrics, CLIs can print it, and every runner the process creates
// feeds it through Hooks.
type Telemetry struct {
	reg *Registry

	// Service-level run lifecycle (pvcd API runs).
	RunsStarted   *Counter
	RunsCompleted *Counter
	RunsFailed    *Counter
	RunsInflight  *Gauge
	HTTPRequests  *CounterVec   // by route
	HTTPDuration  *HistogramVec // by route and outcome (ok | cache-hit | error | panic | rejected | client-error)
	RunCacheHits  *Counter
	SSEKeepalives *Counter
	SSEResumes    *Counter

	// Runner-level cell lifecycle, fed by RunnerHooks.
	CellsCompleted *CounterVec   // by status: ok | error
	CellWall       *HistogramVec // by workload; computed cells only
	QueueDepth     *Gauge
	CellsInflight  *Gauge
	MemoHits       *Counter
	MemoMisses     *Counter
	PanicRecovered *Counter

	// Simulated-observability health re-exported for scraping.
	OrphanFinishes *Gauge

	// Engine health, fed per run by pvcd from the wall-clock
	// self-profiling report: how the simulator spent host time.
	LaneBusy  *Counter      // seconds
	PhaseWall *HistogramVec // by phase: build | simulate | export | cache-wait
}

// New builds a Telemetry with every standard metric registered.
func New() *Telemetry {
	reg := NewRegistry()
	return &Telemetry{
		reg: reg,
		RunsStarted: reg.Counter("pvcd_runs_started_total",
			"API runs accepted by the daemon"),
		RunsCompleted: reg.Counter("pvcd_runs_completed_total",
			"API runs that finished with every cell successful"),
		RunsFailed: reg.Counter("pvcd_runs_failed_total",
			"API runs that finished with at least one failed cell"),
		RunsInflight: reg.Gauge("pvcd_runs_inflight",
			"API runs currently executing"),
		HTTPRequests: reg.CounterVec("pvcd_http_requests_total",
			"HTTP requests served, by route", "route"),
		HTTPDuration: reg.HistogramVec("pvcsim_http_request_duration_seconds",
			"wall-clock HTTP request latency, by route and outcome",
			WallBuckets, "route", "outcome"),
		RunCacheHits: reg.Counter("pvcd_run_cache_hits_total",
			"run submissions answered from the in-memory completed-run cache"),
		SSEKeepalives: reg.Counter("pvcd_sse_keepalives_total",
			"SSE keepalive comments written to event-stream subscribers"),
		SSEResumes: reg.Counter("pvcd_sse_resumes_total",
			"SSE subscriptions resumed from a client Last-Event-ID"),
		CellsCompleted: reg.CounterVec("pvcsim_cells_completed_total",
			"runner cells with a final result, by status", "status"),
		CellWall: reg.HistogramVec("pvcsim_cell_wall_seconds",
			"wall-clock latency of computed (non-cached) cells, by workload",
			WallBuckets, "workload"),
		QueueDepth: reg.Gauge("pvcsim_runner_queue_depth",
			"cells accepted by the runner pool and not yet picked up by a worker"),
		CellsInflight: reg.Gauge("pvcsim_runner_inflight",
			"cells currently being handled by runner workers"),
		MemoHits: reg.Counter("pvcsim_memo_hits_total",
			"cells served from the runner memo cache"),
		MemoMisses: reg.Counter("pvcsim_memo_misses_total",
			"cells actually computed by the runner"),
		PanicRecovered: reg.Counter("pvcsim_panic_recoveries_total",
			"workload panics recovered into cell errors"),
		OrphanFinishes: reg.Gauge("pvcsim_obs_orphan_finishes",
			"obs collector Finish calls for cells that never registered a trace (runner bookkeeping bugs)"),
		LaneBusy: reg.Counter("pvcsim_engine_lane_busy_seconds_total",
			"wall-clock seconds the event engine spent processing events"),
		PhaseWall: reg.HistogramVec("pvcsim_runner_phase_seconds",
			"wall-clock runner phase durations, by phase (build, simulate, export, cache-wait)",
			WallBuckets, "phase"),
	}
}

// Registry exposes the underlying registry (for registering additional
// metrics next to the standard set).
func (t *Telemetry) Registry() *Registry { return t.reg }

// WritePrometheus renders the whole metric set in the Prometheus text
// format.
func (t *Telemetry) WritePrometheus(w io.Writer) error { return t.reg.WritePrometheus(w) }

// AddOrphanFinishes folds one run's obs orphan-finish count into the
// scrapeable gauge. Any nonzero value is a runner bookkeeping bug; the
// gauge makes regressions visible to a scraper instead of only as a
// WARNING line in a CLI summary.
func (t *Telemetry) AddOrphanFinishes(n int64) {
	if n > 0 {
		t.OrphanFinishes.Add(float64(n))
	}
}

// Hooks returns a runner lifecycle-hook consumer feeding this
// Telemetry. It satisfies pvcsim/internal/runner.Hooks structurally (no
// import needed) and is safe for concurrent use by runner workers; one
// Hooks value may be attached to any number of runners.
func (t *Telemetry) Hooks() *RunnerHooks {
	return &RunnerHooks{t: t}
}

// RunnerHooks adapts runner lifecycle events onto the metric set.
// Queue-depth and in-flight gauges are derived from its own queued/
// started/finished tallies so they stay consistent even when cells
// bypass the queue (Runner.RunOne) or a cancelled run drops queued
// cells.
type RunnerHooks struct {
	t *Telemetry

	mu       sync.Mutex
	queued   int64
	started  int64
	finished int64
}

// gauges recomputes the two derived gauges; callers hold h.mu.
func (h *RunnerHooks) gauges() {
	depth := h.queued - h.started
	if depth < 0 {
		depth = 0 // RunOne cells start without ever being queued
	}
	h.t.QueueDepth.Set(float64(depth))
	h.t.CellsInflight.Set(float64(h.started - h.finished))
}

// CellQueued implements the runner's Hooks interface.
func (h *RunnerHooks) CellQueued(system, workload string) {
	h.mu.Lock()
	h.queued++
	h.gauges()
	h.mu.Unlock()
}

// CellStart implements the runner's Hooks interface.
func (h *RunnerHooks) CellStart(system, workload string) {
	h.mu.Lock()
	h.started++
	h.gauges()
	h.mu.Unlock()
}

// CellFinish implements the runner's Hooks interface.
func (h *RunnerHooks) CellFinish(system, workload string, wall time.Duration, cached bool, err error) {
	h.mu.Lock()
	h.finished++
	h.gauges()
	h.mu.Unlock()
	status := "ok"
	if err != nil {
		status = "error"
	}
	h.t.CellsCompleted.With(status).Inc()
	// A computed cell always has nonzero wall time; zero-wall uncached
	// finishes are cells that never reached compute (unsupported system,
	// cancelled waiter) and would pollute the miss counter and the
	// latency histogram's smallest bucket.
	switch {
	case cached:
		h.t.MemoHits.Inc()
	case wall > 0:
		h.t.MemoMisses.Inc()
		h.t.CellWall.With(workload).Observe(wall.Seconds())
	}
}

// CellPanic implements the runner's Hooks interface.
func (h *RunnerHooks) CellPanic(system, workload string, err error) {
	h.t.PanicRecovered.Inc()
}
