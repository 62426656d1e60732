// Package reqtrace is the request-correlation layer: it threads a
// trace ID from the pvcd HTTP boundary through runner lifecycle hooks
// and records per-request wall-clock spans (queue-wait, build,
// simulate, export, cache-lookup), rendering them as a third
// Chrome-trace track next to the simulated-time (obs) and wall-time
// (wallprof) tracks.
//
// Like telemetry and wallprof, reqtrace is a strict wall-clock side
// channel: it consumes only the runner's Hooks callbacks (identity
// strings and wall durations) and its own clock, and never feeds
// anything back into the simulation. Every simulated artifact is
// byte-identical with tracing attached or not — enforced by
// TestRunHooksAreSideChannel in this package and by the pvcd
// determinism tests.
package reqtrace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"pvcsim/internal/chrometrace"
)

// ctxKey is the private context key carrying the request's trace.
type ctxKey struct{}

// WithTrace returns a context carrying tr, so handlers and helpers
// downstream of the HTTP middleware can attach spans to the request's
// trace without explicit plumbing.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// TraceFrom returns the context's trace, or nil when the context does
// not carry one (callers must treat nil as "tracing disabled").
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// Clock returns monotonic nanoseconds since an arbitrary origin. One
// clock is shared by everything a Tracer owns so spans from different
// requests compose into one coherent timeline.
type Clock func() int64

// wallClock anchors the runtime monotonic clock at creation.
func wallClock() Clock {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// randomInstance returns a short random tag distinguishing tracer
// instances, so trace IDs stay unique across daemon restarts (the
// history journal outlives the process that wrote it).
func randomInstance() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000"
	}
	return hex.EncodeToString(b[:])
}

// Tracer mints traces and retains a bounded ring of recent ones for
// the Chrome-trace export. All methods are safe for concurrent use.
type Tracer struct {
	clock    Clock
	instance string

	mu     sync.Mutex
	seq    int
	traces []*Trace
	keep   int
}

// New builds a tracer on the runtime monotonic clock with a random
// instance tag.
func New() *Tracer { return NewWithClock(wallClock(), randomInstance()) }

// NewWithClock builds a tracer on an injected clock and instance tag —
// tests use a counter clock and an empty tag to make IDs and durations
// deterministic.
func NewWithClock(c Clock, instance string) *Tracer {
	return &Tracer{clock: c, instance: instance, keep: 512}
}

// SetKeep bounds the retained-trace ring (default 512). Finished and
// live traces beyond the bound are dropped oldest-first from the
// export; IDs already handed out stay valid.
func (t *Tracer) SetKeep(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > 0 {
		t.keep = n
	}
}

// Start begins a trace named for its origin (an HTTP route, a run ID)
// and stamps it with a fresh trace ID.
func (t *Tracer) Start(name string) *Trace {
	t.mu.Lock()
	t.seq++
	id := fmt.Sprintf("t%04d", t.seq)
	if t.instance != "" {
		id = "t-" + t.instance + fmt.Sprintf("-%04d", t.seq)
	}
	tr := &Trace{clock: t.clock, id: id, name: name, start: t.clock()}
	t.traces = append(t.traces, tr)
	if len(t.traces) > t.keep {
		t.traces = t.traces[len(t.traces)-t.keep:]
	}
	t.mu.Unlock()
	return tr
}

// Span is one named wall-clock interval inside a trace. Times are
// nanoseconds on the tracer's clock.
type Span struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Trace is one request's (or one run's) wall-clock record: an ID, a
// span list, and a terminal outcome. Methods are safe for concurrent
// use — runner workers record spans in parallel.
type Trace struct {
	clock Clock
	id    string
	name  string
	start int64

	mu      sync.Mutex
	spans   []Span
	outcome string
	end     int64 // 0 while live
}

// ID returns the trace ID.
func (tr *Trace) ID() string { return tr.id }

// Name returns the trace's origin name.
func (tr *Trace) Name() string { return tr.name }

// Now reads the tracer's clock; pair it with AddSpan.
func (tr *Trace) Now() int64 { return tr.clock() }

// AddSpan records a span from start (a Now reading) to the present.
func (tr *Trace) AddSpan(name, detail string, start int64) {
	tr.AddSpanAt(name, detail, start, tr.clock())
}

// AddSpanAt records a span with explicit endpoints — used to refine a
// recorded interval after the fact (pvcd splits a cell's compute span
// into build and simulate using the run's wallprof phase durations).
func (tr *Trace) AddSpanAt(name, detail string, start, end int64) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, Span{Name: name, Detail: detail, Start: start, End: end})
	tr.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (tr *Trace) Spans() []Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]Span(nil), tr.spans...)
}

// SetOutcome pins the trace's outcome ahead of Finish; handlers use it
// when the outcome (cache-hit vs ok) cannot be derived from the HTTP
// status code alone.
func (tr *Trace) SetOutcome(o string) {
	tr.mu.Lock()
	tr.outcome = o
	tr.mu.Unlock()
}

// Outcome returns the current outcome ("" until set or finished).
func (tr *Trace) Outcome() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.outcome
}

// Finish ends the trace, keeping an outcome already pinned by
// SetOutcome over the argument, and returns the total duration.
// Finishing twice keeps the first end time.
func (tr *Trace) Finish(outcome string) time.Duration {
	now := tr.clock()
	tr.mu.Lock()
	if tr.end == 0 {
		tr.end = now
	}
	if tr.outcome == "" {
		tr.outcome = outcome
	}
	d := time.Duration(tr.end - tr.start)
	tr.mu.Unlock()
	return d
}

// Outcome label values shared by the HTTP middleware, the latency
// histograms, and the loadtest report. The set is closed on purpose:
// outcome is a metric label and must stay low-cardinality.
const (
	OutcomeOK          = "ok"
	OutcomeCacheHit    = "cache-hit"
	OutcomeError       = "error"
	OutcomePanic       = "panic"
	OutcomeRejected    = "rejected" // 429/503 admission refusals
	OutcomeClientError = "client-error"
)

// RunHooks adapts runner lifecycle events onto a trace: queue-wait
// (CellQueued→CellStart), run (CellStart→CellFinish of a computed
// cell), and cache-lookup (CellStart→CellFinish of a memo-served
// cell) spans, one per cell, tagged with "workload @ system". It
// satisfies pvcsim/internal/runner.Hooks structurally and is safe for
// concurrent use by runner workers.
type RunHooks struct {
	tr *Trace

	mu       sync.Mutex
	queuedAt map[string]int64
	startAt  map[string]int64
}

// RunHooks returns a lifecycle-hook consumer recording cell spans into
// the trace.
func (tr *Trace) RunHooks() *RunHooks {
	return &RunHooks{
		tr:       tr,
		queuedAt: map[string]int64{},
		startAt:  map[string]int64{},
	}
}

// cellKey matches obs.Key.String for a params-less key; hooks only see
// identity strings.
func cellKey(system, workload string) string { return workload + " @ " + system }

// CellQueued implements the runner's Hooks interface.
func (h *RunHooks) CellQueued(system, workload string) {
	now := h.tr.Now()
	h.mu.Lock()
	h.queuedAt[cellKey(system, workload)] = now
	h.mu.Unlock()
}

// CellStart implements the runner's Hooks interface.
func (h *RunHooks) CellStart(system, workload string) {
	now := h.tr.Now()
	k := cellKey(system, workload)
	h.mu.Lock()
	q, queued := h.queuedAt[k]
	delete(h.queuedAt, k)
	h.startAt[k] = now
	h.mu.Unlock()
	if queued {
		h.tr.AddSpanAt("queue-wait", k, q, now)
	}
}

// CellFinish implements the runner's Hooks interface.
func (h *RunHooks) CellFinish(system, workload string, wall time.Duration, cached bool, err error) {
	now := h.tr.Now()
	k := cellKey(system, workload)
	h.mu.Lock()
	start, ok := h.startAt[k]
	delete(h.startAt, k)
	h.mu.Unlock()
	if !ok {
		return
	}
	name := "run"
	if cached {
		name = "cache-lookup"
	}
	h.tr.AddSpanAt(name, k, start, now)
}

// CellPanic implements the runner's Hooks interface. The panic is
// visible as the run span's finish error path; no extra span needed.
func (h *RunHooks) CellPanic(system, workload string, err error) {}

// WriteChromeTrace renders the retained traces as Chrome trace-event
// JSON — the third track next to the simulated-time (obs) and
// wall-time (wallprof) traces; load all three in one Perfetto
// session. One "process" holds every request; each trace gets its own
// "thread" carrying the whole-request span plus its recorded spans.
// Live traces render up to the current clock reading.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	traces := append([]*Trace(nil), t.traces...)
	t.mu.Unlock()

	// Zero the timeline at the earliest trace start so the track lines
	// up near t=0 like the other exports.
	base := int64(0)
	for i, tr := range traces {
		if i == 0 || tr.start < base {
			base = tr.start
		}
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	events := []chrometrace.Event{chrometrace.ProcessName(0, "requests")}
	for tid, tr := range traces {
		tr.mu.Lock()
		end := tr.end
		if end == 0 {
			end = tr.clock()
		}
		events = append(events, chrometrace.ThreadName(0, tid, tr.id+" "+tr.name))
		total := float64(end-tr.start) / 1e3
		args := map[string]any{"trace_id": tr.id}
		if tr.outcome != "" {
			args["outcome"] = tr.outcome
		}
		events = append(events, chrometrace.Event{
			Name: tr.name, Ph: "X", TS: us(tr.start), Dur: &total, PID: 0, TID: tid, Args: args,
		})
		for _, s := range tr.spans {
			dur := float64(s.End-s.Start) / 1e3
			var sargs map[string]any
			if s.Detail != "" {
				sargs = map[string]any{"detail": s.Detail}
			}
			events = append(events, chrometrace.Event{
				Name: s.Name, Ph: "X", TS: us(s.Start), Dur: &dur, PID: 0, TID: tid, Args: sargs,
			})
		}
		tr.mu.Unlock()
	}
	return chrometrace.Write(w, events)
}
