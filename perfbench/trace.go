package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pvcsim/internal/reqtrace"
)

// span is one interval of a trace, as offsets on the trace's clock. ID
// and Parent are assigned by nest: Parent is the ID of the tightest
// enclosing span, 0 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration
}

// opTracer records the benchmark's spans through reqtrace, one trace per
// op, and keeps every trace until the run ends. A nil *opTracer records
// nothing, so untraced runs pay one nil compare per op.
type opTracer struct {
	tr     *reqtrace.Tracer
	mu     sync.Mutex
	traces []*reqtrace.Trace
}

func newOpTracer() *opTracer {
	t := &opTracer{tr: reqtrace.New()}
	t.tr.SetKeep(1 << 20)
	return t
}

// start begins one op's trace; nil on a nil tracer.
func (t *opTracer) start(name string) *opTrace {
	if t == nil {
		return nil
	}
	tr := t.tr.Start(name)
	t.mu.Lock()
	t.traces = append(t.traces, tr)
	t.mu.Unlock()
	return &opTrace{tr: tr, name: name, start: tr.Now()}
}

// opTrace is one op's trace; its root span covers the op.
type opTrace struct {
	tr    *reqtrace.Trace
	name  string
	start int64
}

// finish records the op's root span.
func (o *opTrace) finish() {
	if o != nil {
		o.tr.AddSpan(o.name, "", o.start)
		o.tr.Finish("ok")
	}
}

// timed runs f and records it as a span of the op, returning the span's
// start and end on the trace's clock.
func (o *opTrace) timed(name string, f func() error) (start, end int64, err error) {
	if o == nil {
		return 0, 0, f()
	}
	start = o.tr.Now()
	err = f()
	end = o.tr.Now()
	o.tr.AddSpanAt(name, "", start, end)
	return start, end, err
}

// spans returns every recorded op's spans, nested for self times.
func (t *opTracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, tr := range t.traces {
		var ss []span
		for _, s := range tr.Spans() {
			ss = append(ss, span{Name: s.Name, Start: time.Duration(s.Start), End: time.Duration(s.End)})
		}
		out = append(out, nest(ss, len(out))...)
	}
	return out
}

// writeTraceFile writes the traced run's spans as a Chrome trace to
// .bench_build/perfbench-trace-<workload>.json, replacing the last one.
func (t *opTracer) writeTraceFile(workload string) error {
	path := filepath.Join(buildDir, "perfbench-trace-"+workload+".json")
	if err := writeFile(path, t.tr.WriteChromeTrace); err != nil {
		return err
	}
	fmt.Printf("trace: %d ops written to %s\n", len(t.traces), path)
	return nil
}

// layerTime is the time spent in spans of one name: Total is their summed
// duration, Self the part not covered by their child spans, Count how many
// there were.
type layerTime struct {
	Total, Self time.Duration
	Count       int
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, each clipped to the span.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// nest assigns IDs (from base+1) and parents to the spans of one trace:
// each span's parent is the shortest earlier-starting span containing it.
func nest(spans []span, base int) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []span
	for i := range spans {
		spans[i].ID = base + i + 1
		for len(stack) > 0 && stack[len(stack)-1].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1].ID
		}
		stack = append(stack, spans[i])
	}
	return spans
}
