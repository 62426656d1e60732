package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pvcsim/internal/core"
	"pvcsim/internal/history"
	"pvcsim/internal/obs"
	"pvcsim/internal/reqtrace"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/telemetry"
	"pvcsim/internal/topology"
	"pvcsim/internal/wallprof"
	"pvcsim/internal/workload"
)

// runSpec is the POST /v1/runs request body.
type runSpec struct {
	// Workload is a registry name, or "" / "all" for every registered
	// workload.
	Workload string `json:"workload,omitempty"`
	// Systems restricts execution; empty means every system the
	// workload supports.
	Systems []string `json:"systems,omitempty"`
	// Jobs is the worker count for this run; 0 uses the daemon default.
	Jobs int `json:"jobs,omitempty"`
	// Artifacts additionally renders the complete paper artifact set
	// (all tables, figures, EXPERIMENTS.md), downloadable as a
	// deterministic zip at /v1/runs/{id}/artifacts. Requires Workload
	// to be empty: the artifact study spans the whole registry.
	Artifacts bool `json:"artifacts,omitempty"`
	// Wait turns the submission synchronous: the response is the final
	// run status instead of 202+links. Wait-mode submissions whose spec
	// matches an already-completed run are answered from the completed-
	// run cache (results are deterministic, so the cached response is
	// byte-identical to a recompute) — the request/response pattern
	// `pvcd loadtest` measures.
	Wait bool `json:"wait,omitempty"`
}

// cellJSON is one cell's final state in GET /v1/runs/{id}.
type cellJSON struct {
	Workload string  `json:"workload"`
	System   string  `json:"system"`
	Status   string  `json:"status"` // ok | error
	Cached   bool    `json:"cached,omitempty"`
	WallMS   float64 `json:"wall_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// event is one SSE payload on /v1/runs/{id}/events.
type event struct {
	Seq      int64   `json:"seq"`
	Phase    string  `json:"phase"` // queued|start|finish|cache-hit|panic|run-done
	Workload string  `json:"workload,omitempty"`
	System   string  `json:"system,omitempty"`
	Cached   bool    `json:"cached,omitempty"`
	WallMS   float64 `json:"wall_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
	Status   string  `json:"status,omitempty"` // run-done only
}

// broadcaster accumulates a run's event history and wakes subscribers
// as it grows. Subscribers replay from any index, so a client that
// connects after the run finished still sees the full lifecycle.
type broadcaster struct {
	mu      sync.Mutex
	cond    *sync.Cond
	history []event
	closed  bool
}

func newBroadcaster() *broadcaster {
	b := &broadcaster{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish appends the event (stamping its sequence number) and wakes
// every subscriber.
func (b *broadcaster) publish(e event) {
	b.mu.Lock()
	e.Seq = int64(len(b.history))
	b.history = append(b.history, e)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// close marks the stream complete and wakes subscribers one last time.
func (b *broadcaster) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// wake nudges waiting subscribers without changing state (used when a
// client disconnects, so its wait loop can observe the dead context).
func (b *broadcaster) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// wait blocks until events beyond from exist (returning them), the
// stream closed with nothing newer (returning done=true), or timeout
// elapsed (returning an empty, not-done batch — the SSE handler's
// keepalive tick; 0 disables the timeout). The caller arranges
// cond.Broadcast on context cancellation and re-checks ctx.
func (b *broadcaster) wait(ctx context.Context, from int, timeout time.Duration) (evs []event, done bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	timedOut := false
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			timedOut = true
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer timer.Stop()
	}
	for len(b.history) <= from && !b.closed && ctx.Err() == nil && !timedOut {
		b.cond.Wait()
	}
	if len(b.history) > from {
		evs = append(evs, b.history[from:]...)
	}
	// >= not ==: a resume cursor past the end of a closed stream (a
	// crafted or stale Last-Event-ID) is caught-up, not pending — else
	// the SSE handler's keepalive branch spins with zero delay.
	return evs, b.closed && from+len(evs) >= len(b.history)
}

// sseHooks feeds runner lifecycle events into a run's broadcaster. It
// satisfies runner.Hooks structurally. A memo-served cell is announced
// as a cache-hit event followed by its finish.
type sseHooks struct{ b *broadcaster }

func (h sseHooks) CellQueued(sys, name string) {
	h.b.publish(event{Phase: "queued", Workload: name, System: sys})
}
func (h sseHooks) CellStart(sys, name string) {
	h.b.publish(event{Phase: "start", Workload: name, System: sys})
}
func (h sseHooks) CellFinish(sys, name string, wall time.Duration, cached bool, err error) {
	if cached {
		h.b.publish(event{Phase: "cache-hit", Workload: name, System: sys})
	}
	e := event{Phase: "finish", Workload: name, System: sys,
		Cached: cached, WallMS: float64(wall) / float64(time.Millisecond)}
	if err != nil {
		e.Error = err.Error()
	}
	h.b.publish(e)
}
func (h sseHooks) CellPanic(sys, name string, err error) {
	h.b.publish(event{Phase: "panic", Workload: name, System: sys, Error: err.Error()})
}

// run is one submitted execution.
type apiRun struct {
	id       string
	spec     runSpec
	bcast    *broadcaster
	stats    *runner.Stats
	total    int
	trace    *reqtrace.Trace // the run's own trace (distinct from any HTTP request's)
	start    time.Time
	cacheKey string

	mu           sync.Mutex
	status       string // running | done | failed
	cells        []cellJSON
	metricsJSON  []byte
	artifactsZip []byte
	failure      string

	done chan struct{}
}

// statusJSON is the GET /v1/runs/{id} response.
type statusJSON struct {
	ID            string     `json:"id"`
	TraceID       string     `json:"trace_id,omitempty"`
	Status        string     `json:"status"`
	Spec          runSpec    `json:"spec"`
	CellsTotal    int        `json:"cells_total"`
	CellsStarted  int64      `json:"cells_started"`
	CellsFinished int64      `json:"cells_finished"`
	CacheHits     int64      `json:"cache_hits"`
	Panics        int64      `json:"panics"`
	Cached        bool       `json:"cached,omitempty"` // answered from the completed-run cache
	Error         string     `json:"error,omitempty"`
	Cells         []cellJSON `json:"cells,omitempty"`
}

// server is the pvcd daemon: the run registry, the shared telemetry,
// and the HTTP surface.
type server struct {
	log         *slog.Logger
	tele        *telemetry.Telemetry
	teleHooks   *telemetry.RunnerHooks // one shared instance: its gauges are daemon-wide
	reg         *workload.Registry
	defaultJobs int

	// tracer threads request/run correlation IDs through every handler
	// and runner (reqtrace); journal persists completed runs (history;
	// nil = disabled). Both are wall-clock side channels: simulated
	// exports are byte-identical with them on or off.
	tracer       *reqtrace.Tracer
	journal      *history.Journal
	sseKeepalive time.Duration

	draining atomic.Bool
	wg       sync.WaitGroup

	runCtx    context.Context
	runCancel context.CancelFunc

	mu        sync.Mutex
	runs      map[string]*apiRun
	order     []string
	nextID    int
	specCache map[string]string // canonical spec key → completed run id
}

// newServer builds a daemon around a fresh telemetry set and the
// default workload registry. History is off until the caller sets
// s.journal (the -history flag); the SSE keepalive interval is a field
// so tests can shorten it.
func newServer(log *slog.Logger, defaultJobs int) *server {
	if defaultJobs <= 0 {
		defaultJobs = 1
	}
	tele := telemetry.New()
	ctx, cancel := context.WithCancel(context.Background())
	return &server{
		log:          log,
		tele:         tele,
		teleHooks:    tele.Hooks(),
		reg:          sweep.DefaultRegistry(),
		defaultJobs:  defaultJobs,
		tracer:       reqtrace.New(),
		sseKeepalive: 15 * time.Second,
		runCtx:       ctx,
		runCancel:    cancel,
		runs:         map[string]*apiRun{},
		specCache:    map[string]string{},
	}
}

// statusWriter captures the response status for outcome labeling. It
// forwards Flush so the SSE handler can stream through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcomeForStatus maps an HTTP status to the default outcome label;
// handlers pin finer-grained outcomes (cache-hit, panic) on the trace.
func outcomeForStatus(code int) string {
	switch {
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		return reqtrace.OutcomeRejected
	case code >= 500:
		return reqtrace.OutcomeError
	case code >= 400:
		return reqtrace.OutcomeClientError
	default:
		return reqtrace.OutcomeOK
	}
}

// handler builds the HTTP mux. Every route runs inside the correlation
// middleware: a per-request trace (ID echoed as X-Trace-ID, spans
// visible at /v1/reqtrace), the request counter, and the latency
// histogram, all under a fixed route label (never the raw path, which
// would explode cardinality).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			s.tele.HTTPRequests.With(route).Inc()
			tr := s.tracer.Start(route)
			w.Header().Set("X-Trace-ID", tr.ID())
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r.WithContext(reqtrace.WithTrace(r.Context(), tr)))
			if sw.status == 0 {
				sw.status = http.StatusOK // handler wrote nothing: implicit 200
			}
			d := tr.Finish(outcomeForStatus(sw.status))
			s.tele.HTTPDuration.With(route, tr.Outcome()).Observe(d.Seconds())
		})
	}
	handle("GET /healthz", "healthz", s.handleHealthz)
	handle("GET /readyz", "readyz", s.handleReadyz)
	handle("GET /metrics", "metrics", s.handleMetrics)
	handle("GET /v1/workloads", "workloads_list", s.handleWorkloads)
	handle("POST /v1/runs", "runs_submit", s.handleSubmit)
	handle("GET /v1/runs", "runs_list", s.handleList)
	handle("GET /v1/runs/{id}", "run_status", s.handleStatus)
	handle("GET /v1/runs/{id}/metrics", "run_metrics", s.handleRunMetrics)
	handle("GET /v1/runs/{id}/artifacts", "run_artifacts", s.handleRunArtifacts)
	handle("GET /v1/runs/{id}/events", "run_events", s.handleEvents)
	handle("GET /v1/history", "history", s.handleHistory)
	handle("GET /v1/reqtrace", "reqtrace", s.handleReqtrace)
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// apiWorkload is one row of the workload listing: a registry cell as
// expanded from the sweep families (registration order is expansion
// order, so the listing is deterministic).
type apiWorkload struct {
	Name        string   `json:"name"`
	Systems     []string `json:"systems"`
	Params      string   `json:"params,omitempty"`
	Description string   `json:"description,omitempty"`
}

func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	out := make([]apiWorkload, 0, s.reg.Len())
	for _, wl := range s.reg.Workloads() {
		systems := make([]string, 0, len(wl.Systems()))
		for _, sys := range wl.Systems() {
			systems = append(systems, sys.String())
		}
		out = append(out, apiWorkload{
			Name:        wl.Name(),
			Systems:     systems,
			Params:      workload.ParamsOf(wl),
			Description: workload.DescriptionOf(wl),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.tele.WritePrometheus(w); err != nil {
		s.log.ErrorContext(r.Context(), "metrics render failed", "err", err)
	}
}

// apiError writes a JSON error body with the given status.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveCells expands a validated spec into runner cells.
func (s *server) resolveCells(spec runSpec) ([]runner.Cell, error) {
	var systems []topology.System
	for _, name := range spec.Systems {
		sys, err := topology.ParseSystem(name)
		if err != nil {
			return nil, err
		}
		systems = append(systems, sys)
	}
	var workloads []workload.Workload
	if spec.Workload == "" || spec.Workload == "all" {
		workloads = s.reg.Workloads()
	} else {
		w, ok := s.reg.Get(spec.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)",
				spec.Workload, strings.Join(s.reg.SortedNames(), ", "))
		}
		workloads = []workload.Workload{w}
	}
	var cells []runner.Cell
	for _, w := range workloads {
		targets := w.Systems()
		if len(systems) > 0 {
			targets = nil
			for _, sys := range systems {
				if !workload.Supports(w, sys) {
					// Whole-registry runs skip unsupported pairs; a
					// named workload on an explicit bad system is a
					// client error.
					if spec.Workload != "" && spec.Workload != "all" {
						return nil, fmt.Errorf("workload %q does not run on %s (supported: %v)",
							w.Name(), sys, w.Systems())
					}
					continue
				}
				targets = append(targets, sys)
			}
		}
		for _, sys := range targets {
			cells = append(cells, runner.Cell{System: sys, Workload: w})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("spec selects no cells")
	}
	return cells, nil
}

// specCacheKey canonicalizes the result-determining part of a spec.
// Jobs and Wait are excluded on purpose: results are deterministic
// across any -jobs setting (the determinism tests prove it), so two
// specs differing only there produce byte-identical outputs. Workload
// "" and "all" are the same selection (resolveCells treats them
// identically), system order never reaches the exported bytes (the
// artifacts zip is path-sorted, the obs report cell-sorted), and
// systems key by the name topology.ParseSystem resolves them to, so
// case and aliases do not matter; all normalize to one key. Duplicates
// are kept: they add cells and change the run's status.
func specCacheKey(spec runSpec) string {
	w := spec.Workload
	if w == "" {
		w = "all"
	}
	systems := make([]string, len(spec.Systems))
	for i, name := range spec.Systems {
		systems[i] = name
		if sys, err := topology.ParseSystem(name); err == nil {
			systems[i] = sys.String()
		}
	}
	sort.Strings(systems)
	return fmt.Sprintf("w=%s|s=%s|a=%t",
		w, strings.Join(systems, ","), spec.Artifacts)
}

// maxSpecBytes caps a run-spec request body: far above any real spec (a
// few hundred bytes), small enough that no client can make the daemon
// read an unbounded body.
const maxSpecBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		apiError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	var spec runSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			apiError(w, http.StatusRequestEntityTooLarge, "run spec exceeds %d bytes", maxSpecBytes)
			return
		}
		apiError(w, http.StatusBadRequest, "bad run spec: %v", err)
		return
	}
	if spec.Artifacts && spec.Workload != "" {
		apiError(w, http.StatusBadRequest, "artifacts runs span the whole registry; leave workload empty")
		return
	}
	cells, err := s.resolveCells(spec)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.Jobs < 0 {
		apiError(w, http.StatusBadRequest, "jobs must be >= 0")
		return
	}

	key := specCacheKey(spec)
	if spec.Wait {
		// Only synchronous submissions consult the completed-run cache:
		// async clients may be probing live lifecycle events, and the
		// existing determinism tests rely on repeat submissions running.
		s.mu.Lock()
		prevID, ok := s.specCache[key]
		prev := s.runs[prevID]
		s.mu.Unlock()
		if ok && prev != nil {
			s.tele.RunCacheHits.Inc()
			if tr := reqtrace.TraceFrom(r.Context()); tr != nil {
				tr.AddSpan("cache-lookup", "completed-run cache hit: "+prevID, tr.Now())
				tr.SetOutcome(reqtrace.OutcomeCacheHit)
			}
			st := s.statusOf(prev)
			st.Cached = true
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(st)
			return
		}
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("r%04d", s.nextID)
	rn := &apiRun{
		id: id, spec: spec, bcast: newBroadcaster(),
		stats: &runner.Stats{}, total: len(cells),
		trace: s.tracer.Start("run " + id), start: time.Now(),
		cacheKey: key,
		status:   "running", done: make(chan struct{}),
	}
	s.runs[id] = rn
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.tele.RunsStarted.Inc()
	s.tele.RunsInflight.Inc()
	s.wg.Add(1)
	ctx := telemetry.WithRunID(s.runCtx, id)
	s.log.InfoContext(ctx, "run accepted",
		"workload", spec.Workload, "systems", strings.Join(spec.Systems, ","),
		"jobs", s.jobsFor(spec), "cells", len(cells), "artifacts", spec.Artifacts,
		"trace", rn.trace.ID())
	go s.execute(ctx, rn, cells)

	if spec.Wait {
		select {
		case <-rn.done:
		case <-r.Context().Done():
			// The run keeps executing; the client just stopped waiting.
			apiError(w, http.StatusRequestTimeout, "client went away while waiting for run %s", id)
			return
		}
		st := s.statusOf(rn)
		if tr := reqtrace.TraceFrom(r.Context()); tr != nil {
			switch {
			case st.Status == "failed" && st.Panics > 0:
				tr.SetOutcome(reqtrace.OutcomePanic)
			case st.Status == "failed":
				tr.SetOutcome(reqtrace.OutcomeError)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
		return
	}

	// execute may already be updating the status.
	rn.mu.Lock()
	status := rn.status
	rn.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id":       id,
		"status":   status,
		"cells":    len(cells),
		"trace_id": rn.trace.ID(),
		"links": map[string]string{
			"status":  "/v1/runs/" + id,
			"events":  "/v1/runs/" + id + "/events",
			"metrics": "/v1/runs/" + id + "/metrics",
		},
	})
}

// jobsFor resolves a spec's worker count.
func (s *server) jobsFor(spec runSpec) int {
	if spec.Jobs > 0 {
		return spec.Jobs
	}
	return s.defaultJobs
}

// execute runs the cells on a fresh runner with the run's observability
// attached, then freezes the results. It is the only writer of the
// run's terminal state.
func (s *server) execute(ctx context.Context, rn *apiRun, cells []runner.Cell) {
	defer s.wg.Done()
	start := time.Now()

	// Artifacts runs execute through a core.Study so the artifact
	// renderer shares the run's memoized runner; plain runs get a bare
	// runner. Either way the run owns a fresh memo — no cross-run
	// state can leak into results.
	var study *core.Study
	var r *runner.Runner
	if rn.spec.Artifacts {
		study = core.NewParallelStudy(s.jobsFor(rn.spec))
		r = study.Runner()
	} else {
		r = runner.New(s.jobsFor(rn.spec))
	}
	col := obs.NewCollector()
	r.Observe(col)
	// Wall-clock self-profiling and request tracing ride along on every
	// run: the wallprof report feeds the engine-health metrics scraped at
	// /metrics, and the run's trace records queue-wait / run /
	// cache-lookup spans per cell. Pure side channels — the simulated
	// artifacts below are unaffected.
	wall := wallprof.New()
	r.ProfileWall(wall)
	r.AddHooks(s.teleHooks)
	r.AddHooks(rn.stats)
	r.AddHooks(sseHooks{b: rn.bcast})
	r.AddHooks(rn.trace.RunHooks())

	results := r.Run(ctx, cells)

	// Export phase: render the downloadable artifacts and the metrics
	// JSON, timed into both the wallprof report and the run's trace.
	expWall, expTrace := wall.Now(), rn.trace.Now()
	var zipBytes []byte
	var artErr error
	if study != nil && ctx.Err() == nil {
		zipBytes, artErr = renderArtifactsZip(study)
	}
	rep := col.Report()
	s.tele.AddOrphanFinishes(rep.OrphanFinishes)
	var metricsBuf bytes.Buffer
	metricsErr := rep.WriteMetrics(&metricsBuf)
	wall.AddExportNS(wall.Now() - expWall)
	rn.trace.AddSpanAt("export", "artifacts + metrics render", expTrace, rn.trace.Now())

	wallRep := wall.Report()
	refineTraceSpans(rn.trace, wallRep)
	s.observeWall(wallRep)

	rn.mu.Lock()
	rn.status = "done"
	for _, res := range results {
		c := cellJSON{
			Workload: res.Name, System: res.System.String(),
			Status: "ok", Cached: res.Cached,
			WallMS: float64(res.Elapsed) / float64(time.Millisecond),
		}
		if res.Err != nil {
			c.Status, c.Error = "error", res.Err.Error()
			rn.status = "failed"
		}
		rn.cells = append(rn.cells, c)
	}
	switch {
	case artErr != nil:
		rn.status, rn.failure = "failed", "artifacts: "+artErr.Error()
	case metricsErr != nil:
		rn.status, rn.failure = "failed", "metrics export: "+metricsErr.Error()
	default:
		rn.metricsJSON = metricsBuf.Bytes()
		rn.artifactsZip = zipBytes
	}
	status := rn.status
	rn.mu.Unlock()

	if status == "done" {
		s.tele.RunsCompleted.Inc()
	} else {
		s.tele.RunsFailed.Inc()
	}
	outcome := reqtrace.OutcomeOK
	switch {
	case status == "failed" && rn.stats.Panics() > 0:
		outcome = reqtrace.OutcomePanic
	case status == "failed":
		outcome = reqtrace.OutcomeError
	}
	rn.trace.Finish(outcome)

	if status == "done" {
		s.mu.Lock()
		s.specCache[rn.cacheKey] = rn.id
		s.mu.Unlock()
	}
	if s.journal != nil {
		if err := s.journal.Append(s.historyRecord(rn, results, wallRep)); err != nil {
			s.log.ErrorContext(ctx, "history append failed", "err", err)
		}
	}

	// Settle the gauge before announcing completion, so a client woken
	// by the run's end never scrapes it still in flight.
	s.tele.RunsInflight.Dec()
	rn.bcast.publish(event{Phase: "run-done", Status: status})
	rn.bcast.close()
	close(rn.done)
	s.log.InfoContext(ctx, "run finished", "status", status,
		"wall", time.Since(start).Round(time.Millisecond).String(),
		"computed", rn.stats.Computed(), "cache_hits", rn.stats.CacheHits(),
		"panics", rn.stats.Panics(), "trace", rn.trace.ID())
}

// refineTraceSpans back-fills build/simulate spans into the run trace
// from the wallprof report. Hooks only see cell start/finish; wallprof
// knows how the computed time split, so each cell's "run" span gains a
// build span followed by a simulate span of the measured durations
// (placement is sequential from the run span's start — the real order).
func refineTraceSpans(tr *reqtrace.Trace, rep *wallprof.Report) {
	runStart := map[string]int64{}
	for _, sp := range tr.Spans() {
		if sp.Name == "run" {
			runStart[sp.Detail] = sp.Start
		}
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		st, ok := runStart[c.Workload+" @ "+c.System]
		if !ok {
			continue
		}
		buildNS := int64(c.BuildMS * 1e6)
		simNS := int64(c.SimulateMS * 1e6)
		if buildNS > 0 {
			tr.AddSpanAt("build", c.Workload+" @ "+c.System, st, st+buildNS)
		}
		if simNS > 0 {
			tr.AddSpanAt("simulate", c.Workload+" @ "+c.System, st+buildNS, st+buildNS+simNS)
		}
	}
}

// observeWall feeds one run's wall report into the engine-health
// metrics: engine busy time, and one runner-phase sample per cell for
// build and simulate, per memo-served cell for cache-wait, and per run
// for export.
func (s *server) observeWall(rep *wallprof.Report) {
	for i := range rep.Cells {
		c := &rep.Cells[i]
		s.tele.LaneBusy.Add(c.EngineRunMS / 1e3)
		s.tele.PhaseWall.With("build").Observe(c.BuildMS / 1e3)
		s.tele.PhaseWall.With("simulate").Observe(c.SimulateMS / 1e3)
		if c.CacheHits > 0 {
			s.tele.PhaseWall.With("cache-wait").Observe(c.CacheWaitMS / 1e3)
		}
	}
	if rep.ExportMS > 0 {
		s.tele.PhaseWall.With("export").Observe(rep.ExportMS / 1e3)
	}
}

// historyRecord freezes one finished run into its journal record. Sim
// keys are workload.SimKey, the bench-record format, so `pvcprof
// history` can diff them against BENCH_*.json baselines.
func (s *server) historyRecord(rn *apiRun, results []runner.CellResult, wall *wallprof.Report) history.Record {
	rn.mu.Lock()
	status := rn.status
	rn.mu.Unlock()
	selection := rn.spec.Workload
	if selection == "" {
		selection = "all"
	}
	rec := history.Record{
		ID:        rn.id,
		TraceID:   rn.trace.ID(),
		Start:     rn.start.UTC().Format(time.RFC3339Nano),
		Workload:  selection,
		Systems:   rn.spec.Systems,
		Status:    status,
		Cells:     len(results),
		CacheHits: rn.stats.CacheHits(),
		Panics:    rn.stats.Panics(),
		Wall: history.WallStats{
			RunMS:    float64(time.Since(rn.start)) / float64(time.Millisecond),
			ExportMS: wall.ExportMS,
		},
	}
	for _, c := range wall.Cells {
		rec.Wall.BuildMS += c.BuildMS
		rec.Wall.SimulateMS += c.SimulateMS
		rec.Wall.CacheWaitMS += c.CacheWaitMS
	}
	for _, res := range results {
		if res.Err != nil {
			continue
		}
		for _, v := range res.Result.Values {
			if rec.Sim == nil {
				rec.Sim = map[string]float64{}
			}
			rec.Sim[workload.SimKey(res.Name, res.System, v)] = v.Value
		}
	}
	return rec
}

// get looks a run up by the request's {id}.
func (s *server) get(w http.ResponseWriter, r *http.Request) *apiRun {
	s.mu.Lock()
	rn := s.runs[r.PathValue("id")]
	s.mu.Unlock()
	if rn == nil {
		apiError(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
	}
	return rn
}

func (s *server) statusOf(rn *apiRun) statusJSON {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	traceID := ""
	if rn.trace != nil {
		traceID = rn.trace.ID()
	}
	return statusJSON{
		ID: rn.id, TraceID: traceID, Status: rn.status, Spec: rn.spec,
		CellsTotal:    rn.total,
		CellsStarted:  rn.stats.Started(),
		CellsFinished: rn.stats.Finished(),
		CacheHits:     rn.stats.CacheHits(),
		Panics:        rn.stats.Panics(),
		Error:         rn.failure,
		Cells:         rn.cells,
	}
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rn := s.get(w, r)
	if rn == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statusOf(rn))
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]statusJSON, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		rn := s.runs[id]
		s.mu.Unlock()
		st := s.statusOf(rn)
		st.Cells = nil // summaries only
		out = append(out, st)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"runs": out})
}

func (s *server) handleRunMetrics(w http.ResponseWriter, r *http.Request) {
	rn := s.get(w, r)
	if rn == nil {
		return
	}
	rn.mu.Lock()
	body := rn.metricsJSON
	status := rn.status
	rn.mu.Unlock()
	if status == "running" {
		apiError(w, http.StatusConflict, "run %s still executing; wait for done", rn.id)
		return
	}
	if body == nil {
		apiError(w, http.StatusNotFound, "run %s has no metrics export", rn.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *server) handleRunArtifacts(w http.ResponseWriter, r *http.Request) {
	rn := s.get(w, r)
	if rn == nil {
		return
	}
	rn.mu.Lock()
	body := rn.artifactsZip
	status := rn.status
	rn.mu.Unlock()
	if status == "running" {
		apiError(w, http.StatusConflict, "run %s still executing; wait for done", rn.id)
		return
	}
	if body == nil {
		apiError(w, http.StatusNotFound, "run %s was not submitted with \"artifacts\": true", rn.id)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Write(body)
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rn := s.get(w, r)
	if rn == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		apiError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// A reconnecting EventSource client sends the last id it saw; resume
	// one past it instead of replaying the whole history.
	idx := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			idx = n + 1
			if idx < 0 {
				// n == MaxInt: keep the cursor past the end rather than
				// wrapping negative (history[idx:] would panic).
				idx = n
			}
			s.tele.SSEResumes.Inc()
		}
	}

	// An immediate keepalive comment proves the stream is live before
	// any event exists (and gives the smoke test a deterministic marker);
	// later ones are emitted whenever wait times out idle.
	fmt.Fprint(w, ": keepalive\n\n")
	s.tele.SSEKeepalives.Inc()
	flusher.Flush()

	ctx := r.Context()
	// Wake the cond wait when the client goes away.
	go func() {
		<-ctx.Done()
		rn.bcast.wake()
	}()

	for {
		evs, done := rn.bcast.wait(ctx, idx, s.sseKeepalive)
		if len(evs) == 0 && !done && ctx.Err() == nil {
			fmt.Fprint(w, ": keepalive\n\n")
			s.tele.SSEKeepalives.Inc()
			flusher.Flush()
			continue
		}
		for _, e := range evs {
			name := "cell"
			if e.Phase == "run-done" {
				name = "run"
			}
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", name, e.Seq, data)
		}
		idx += len(evs)
		flusher.Flush()
		if done || ctx.Err() != nil {
			return
		}
	}
}

// handleHistory serves the persistent run-history journal (newest
// last). 404 when the daemon booted without -history.
func (s *server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		apiError(w, http.StatusNotFound, "history disabled; start pvcd with -history")
		return
	}
	recs := s.journal.Records()
	if lim := r.URL.Query().Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			apiError(w, http.StatusBadRequest, "bad limit %q", lim)
			return
		}
		if n < len(recs) {
			recs = recs[len(recs)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"schema_version": history.SchemaVersion,
		"path":           s.journal.Path(),
		"count":          len(recs),
		"records":        recs,
	})
}

// handleReqtrace serves the retained request/run traces as Chrome
// trace-event JSON — the third Perfetto track next to the simulated
// (obs) and wall-time (wallprof) exports.
func (s *server) handleReqtrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.WriteChromeTrace(w); err != nil {
		s.log.Error("reqtrace export failed", "err", err)
	}
}

// beginDrain flips readiness off and stops accepting new runs.
func (s *server) beginDrain() {
	s.draining.Store(true)
}

// awaitRuns blocks until every accepted run finished, or the timeout
// elapsed — in which case in-flight runs are cancelled and given a
// moment to unwind. Returns true on a clean drain.
func (s *server) awaitRuns(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		s.runCancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
		}
		return false
	}
}
