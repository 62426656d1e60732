package reqtrace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/reqtrace"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
)

// fakeClock is a hand-advanced monotonic clock for deterministic span
// placement in tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) clock() int64    { return c.now }
func (c *fakeClock) advance(d int64) { c.now += d }
func newFakeTracer() (*reqtrace.Tracer, *fakeClock) {
	c := &fakeClock{}
	return reqtrace.NewWithClock(c.clock, "test"), c
}

func TestTraceIDsAreSequentialAndInstanceTagged(t *testing.T) {
	tr, _ := newFakeTracer()
	a := tr.Start("one")
	b := tr.Start("two")
	if a.ID() != "t-test-0001" || b.ID() != "t-test-0002" {
		t.Fatalf("ids = %q, %q; want t-test-0001, t-test-0002", a.ID(), b.ID())
	}
	if a.Name() != "one" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestFinishPinsOutcomeAndDuration(t *testing.T) {
	tr, c := newFakeTracer()
	a := tr.Start("req")
	c.advance(5_000_000)
	if d := a.Finish(reqtrace.OutcomeOK); d != 5*time.Millisecond {
		t.Fatalf("duration = %v, want 5ms", d)
	}
	// A later generic Finish must not overwrite a pinned outcome.
	a.SetOutcome(reqtrace.OutcomeCacheHit)
	c.advance(1_000_000)
	d := a.Finish(reqtrace.OutcomeError)
	if a.Outcome() != reqtrace.OutcomeCacheHit {
		t.Fatalf("outcome = %q, want pinned cache-hit", a.Outcome())
	}
	if d != 5*time.Millisecond {
		t.Fatalf("duration changed after second Finish: %v", d)
	}
}

func TestRunHooksRecordSpans(t *testing.T) {
	tr, c := newFakeTracer()
	a := tr.Start("run r0001")
	h := a.RunHooks()
	h.CellQueued("aurora", "triad")
	c.advance(1000)
	h.CellStart("aurora", "triad")
	c.advance(4000)
	h.CellFinish("aurora", "triad", 4000, false, nil)

	h.CellQueued("dawn", "triad")
	c.advance(500)
	h.CellStart("dawn", "triad")
	c.advance(100)
	h.CellFinish("dawn", "triad", 0, true, nil)

	spans := a.Spans()
	want := []struct {
		name, detail string
		start, end   int64
	}{
		{"queue-wait", "triad @ aurora", 0, 1000},
		{"run", "triad @ aurora", 1000, 5000},
		{"queue-wait", "triad @ dawn", 5000, 5500},
		{"cache-lookup", "triad @ dawn", 5500, 5600},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		if s.Name != w.name || s.Detail != w.detail || s.Start != w.start || s.End != w.end {
			t.Errorf("span %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestTracerKeepsBoundedRing(t *testing.T) {
	tr, _ := newFakeTracer()
	tr.SetKeep(3)
	for i := 0; i < 10; i++ {
		tr.Start("req").Finish(reqtrace.OutcomeOK)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// 3 retained traces → 3 thread_name metadata events.
	if n := strings.Count(buf.String(), "thread_name"); n != 3 {
		t.Fatalf("retained %d traces, want 3", n)
	}
	// The newest trace survives eviction.
	if !strings.Contains(buf.String(), "t-test-0010") {
		t.Fatal("newest trace missing from ring")
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	tr, c := newFakeTracer()
	a := tr.Start("run r0001")
	a.AddSpan("queue-wait", "triad @ aurora", a.Now())
	c.advance(2500)
	a.Finish(reqtrace.OutcomePanic)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	// process meta + thread meta + whole-trace X + span X
	if len(file.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4: %s", len(file.TraceEvents), buf.String())
	}
	foundOutcome := false
	for _, e := range file.TraceEvents {
		if args, ok := e["args"].(map[string]any); ok && args["outcome"] == "panic" {
			foundOutcome = true
		}
	}
	if !foundOutcome {
		t.Fatal("whole-trace event does not carry the outcome arg")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr, _ := newFakeTracer()
	a := tr.Start("req")
	ctx := reqtrace.WithTrace(context.Background(), a)
	if got := reqtrace.TraceFrom(ctx); got != a {
		t.Fatal("TraceFrom did not return the stored trace")
	}
	if got := reqtrace.TraceFrom(context.Background()); got != nil {
		t.Fatal("TraceFrom on a bare context must be nil")
	}
}

// exports renders the simulated exports of one observed run, optionally
// with request-trace hooks attached — the reqtrace half of the
// side-channel invariant telemetry already enforces for its hooks.
func exports(t *testing.T, jobs int, withTrace bool) (metrics, trace, profile []byte) {
	t.Helper()
	reg := sweep.DefaultRegistry()
	var cells []runner.Cell
	for _, name := range []string{"clover-scaling", "p2p", "clover-scaling"} {
		w, ok := reg.Get(name)
		if !ok {
			t.Fatalf("workload %s not registered", name)
		}
		for _, sys := range w.Systems() {
			cells = append(cells, runner.Cell{System: sys, Workload: w})
		}
	}
	r := runner.New(jobs)
	col := obs.NewCollector()
	r.Observe(col)
	if withTrace {
		tracer := reqtrace.New()
		r.AddHooks(tracer.Start("run parity").RunHooks())
	}
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	rep := col.Report()
	var m, tr, p bytes.Buffer
	if err := rep.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := prof.Build(rep).WriteJSON(&p); err != nil {
		t.Fatal(err)
	}
	return m.Bytes(), tr.Bytes(), p.Bytes()
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestRunHooksAreSideChannel: every simulated export is byte-identical
// with request tracing attached or not, across worker counts.
func TestRunHooksAreSideChannel(t *testing.T) {
	baseM, baseT, baseP := exports(t, 1, false)
	for _, tc := range []struct {
		name  string
		jobs  int
		trace bool
	}{
		{"trace-jobs1", 1, true},
		{"trace-jobs4", 4, true},
	} {
		m, tr, p := exports(t, tc.jobs, tc.trace)
		for _, cmp := range []struct {
			label     string
			got, want []byte
		}{
			{"metrics", m, baseM},
			{"trace", tr, baseT},
			{"profile", p, baseP},
		} {
			if !bytes.Equal(cmp.got, cmp.want) {
				i := firstDiff(cmp.got, cmp.want)
				t.Errorf("%s: %s export differs from plain serial run at byte %d",
					tc.name, cmp.label, i)
			}
		}
	}
}
