// Package obs is the simulator-wide observability layer: a Recorder
// interface the machine model calls at phase boundaries (kernel launch
// and retire, modeled transfers, throttle residency, cache-level
// resolution), a per-cell Trace that accumulates timed spans and named
// counters, and a thread-safe Collector the parallel runner aggregates
// cells into.
//
// Every span is stamped with *simulated* time, never wall clock, so the
// recorded timeline of a cell depends only on the cell's deterministic
// simulation — traces and metrics are byte-identical however many
// workers the runner fans cells across. Wall-clock durations exist only
// in the human-facing summary, which is why they are excluded from the
// machine-readable exports (see export.go).
//
// Recording is opt-in and free when disabled: model code holds a nil
// Recorder by default and every hook is guarded, so the hot path pays
// one nil check and zero allocations unless a trace was requested.
package obs

import (
	"sort"

	"pvcsim/internal/units"
)

// Span is one timed phase of the simulation: a kernel execution, a
// modeled transfer, or a fabric flow. Start and End are simulated
// timestamps on the owning machine's virtual clock.
type Span struct {
	Name  string        // operation name, e.g. "triad" or "d2d:0.0->1.0"
	Cat   string        // category: "kernel", "h2d", "d2h", "d2d", "flow"
	GPU   int           // device index; -1 for spans not tied to a device
	Stack int           // subdevice index; -1 when GPU is -1
	Start units.Seconds // simulated start time
	End   units.Seconds // simulated end time
	Bytes units.Bytes   // bytes moved, 0 for pure compute
	Flops float64       // arithmetic operations, 0 for pure transfers
	Bound string        // binding resource (prof taxonomy); "" when covered by an enclosing span
}

// Duration returns the span's simulated extent.
func (s Span) Duration() units.Seconds { return s.End - s.Start }

// Counter is one named aggregate with its accumulated value.
type Counter struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Recorder receives spans and counter increments from the machine
// model. Implementations need not be goroutine-safe: each cell's
// simulation is single-threaded, and the runner hands every cell its
// own Recorder.
type Recorder interface {
	// Span records one timed phase.
	Span(s Span)
	// Add increments the named counter by delta.
	Add(name string, delta float64)
}

// Emit records a span on r, tolerating a nil recorder. Model code that
// only has the interface should use it instead of a method call.
func Emit(r Recorder, s Span) {
	if r != nil {
		r.Span(s)
	}
}

// Count increments a counter on r, tolerating a nil recorder.
func Count(r Recorder, name string, delta float64) {
	if r != nil {
		r.Add(name, delta)
	}
}

// Trace is the standard Recorder: it accumulates the spans and counters
// of one cell. The zero value is not usable; call NewTrace.
type Trace struct {
	spans    []Span
	counters map[string]float64
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{counters: map[string]float64{}}
}

// Span implements Recorder.
func (t *Trace) Span(s Span) { t.spans = append(t.spans, s) }

// Add implements Recorder.
func (t *Trace) Add(name string, delta float64) { t.counters[name] += delta }

// Len reports the number of recorded spans.
func (t *Trace) Len() int { return len(t.spans) }

// less orders spans on every field, so that spans recorded in a
// nondeterministic relative order (equal simulated timestamps) still
// serialize identically: any two spans that compare equal are
// indistinguishable byte-for-byte.
func less(a, b Span) bool {
	switch {
	case a.Start != b.Start:
		return a.Start < b.Start
	case a.End != b.End:
		return a.End < b.End
	case a.GPU != b.GPU:
		return a.GPU < b.GPU
	case a.Stack != b.Stack:
		return a.Stack < b.Stack
	case a.Cat != b.Cat:
		return a.Cat < b.Cat
	case a.Name != b.Name:
		return a.Name < b.Name
	case a.Bytes != b.Bytes:
		return a.Bytes < b.Bytes
	case a.Flops != b.Flops:
		return a.Flops < b.Flops
	default:
		return a.Bound < b.Bound
	}
}

// Spans returns the recorded spans in a deterministic total order.
func (t *Trace) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Counters returns the counters sorted by name.
func (t *Trace) Counters() []Counter {
	out := make([]Counter, 0, len(t.counters))
	for n, v := range t.counters {
		out = append(out, Counter{Name: n, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns one counter's value (0 when never incremented).
func (t *Trace) Counter(name string) float64 { return t.counters[name] }

// SimEnd returns the latest span end time — the simulated makespan of
// everything the trace observed.
func (t *Trace) SimEnd() units.Seconds {
	var end units.Seconds
	for _, s := range t.spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// Key identifies one (workload, system, params) cell in a Collector.
type Key struct {
	Workload string
	System   string
	Params   string
}

// String renders "workload @ system", followed by " [params]" when
// the cell has params. Every export names cells this way.
func (k Key) String() string {
	if k.Params == "" {
		return k.Workload + " @ " + k.System
	}
	return k.Workload + " @ " + k.System + " [" + k.Params + "]"
}
