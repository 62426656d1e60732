package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/units"
)

func TestNilRecorderSafe(t *testing.T) {
	// Model code calls these with a nil Recorder whenever no trace was
	// requested; both must be no-ops, not panics.
	Emit(nil, Span{Name: "k"})
	Count(nil, "c", 1)
}

func TestTraceSpanOrderCanonical(t *testing.T) {
	a := Span{Name: "a", Cat: "kernel", GPU: 0, Stack: 0, Start: 1, End: 2}
	b := Span{Name: "b", Cat: "d2d", GPU: 1, Stack: 1, Start: 1, End: 2}
	c := Span{Name: "c", Cat: "flow", GPU: -1, Stack: -1, Start: 0, End: 3}
	t1 := NewTrace()
	for _, s := range []Span{a, b, c} {
		t1.Span(s)
	}
	t2 := NewTrace()
	for _, s := range []Span{c, b, a} {
		t2.Span(s)
	}
	if !reflect.DeepEqual(t1.Spans(), t2.Spans()) {
		t.Fatalf("span order depends on record order:\n%v\n%v", t1.Spans(), t2.Spans())
	}
	got := t1.Spans()
	if got[0].Name != "c" || got[1].Name != "a" || got[2].Name != "b" {
		t.Fatalf("canonical order wrong: %v", got)
	}
}

func TestTraceCountersAndSimEnd(t *testing.T) {
	tr := NewTrace()
	tr.Add("z.bytes", 10)
	tr.Add("a.flops", 1)
	tr.Add("z.bytes", 5)
	cs := tr.Counters()
	want := []Counter{{Name: "a.flops", Value: 1}, {Name: "z.bytes", Value: 15}}
	if !reflect.DeepEqual(cs, want) {
		t.Fatalf("counters = %v, want %v", cs, want)
	}
	if v := tr.Counter("z.bytes"); v != 15 {
		t.Fatalf("Counter(z.bytes) = %v, want 15", v)
	}
	tr.Span(Span{Start: 1, End: 4})
	tr.Span(Span{Start: 2, End: 3})
	if end := tr.SimEnd(); end != 4 {
		t.Fatalf("SimEnd = %v, want 4", end)
	}
}

func TestCollectorReplacesAbandonedAttempt(t *testing.T) {
	col := NewCollector()
	k := Key{Workload: "w", System: "aurora"}
	first := col.Cell(k)
	first.Span(Span{Name: "abandoned", Start: 0, End: 1})
	// A retry after cancellation registers a fresh trace; the abandoned
	// attempt's spans must not leak into the report.
	second := col.Cell(k)
	second.Span(Span{Name: "kept", Start: 0, End: 2})
	second.Span(Span{Name: "kept2", Start: 2, End: 3})
	col.Finish(k, time.Second, nil)
	rep := col.Report()
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Events != 2 || c.SimEnd != 3 {
		t.Fatalf("events/simEnd = %d/%v, want 2/3", c.Events, c.SimEnd)
	}
	for _, s := range c.Spans() {
		if s.Name == "abandoned" {
			t.Fatal("abandoned attempt's span leaked into the report")
		}
	}
}

func TestReportOrderIndependentOfCompletion(t *testing.T) {
	keys := []Key{
		{Workload: "zeta", System: "dawn"},
		{Workload: "alpha", System: "dawn", Params: "n=2"},
		{Workload: "alpha", System: "aurora"},
		{Workload: "alpha", System: "dawn", Params: "n=1"},
	}
	col := NewCollector()
	for _, k := range keys { // registered in completion order, not sorted
		col.Cell(k)
		col.Finish(k, 0, nil)
	}
	rep := col.Report()
	var got []string
	for _, c := range rep.Cells {
		got = append(got, c.Workload+"/"+c.System+"/"+c.Params)
	}
	want := []string{"alpha/aurora/", "alpha/dawn/n=1", "alpha/dawn/n=2", "zeta/dawn/"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report order = %v, want %v", got, want)
	}
}

func TestWriteMetricsSimulatedOnly(t *testing.T) {
	col := NewCollector()
	k := Key{Workload: "w", System: "aurora", Params: "p=1"}
	tr := col.Cell(k)
	tr.Span(Span{Name: "k", Start: 0, End: 1, Flops: 2})
	tr.Add("model.flops", 2)
	col.Finish(k, 123*time.Millisecond, nil)
	col.MemoMiss()
	col.MemoHit()
	var buf bytes.Buffer
	if err := col.Report().WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("metrics dump is not valid JSON: %v", err)
	}
	// Wall-clock varies run to run; it must never reach the export.
	if strings.Contains(strings.ToLower(buf.String()), "wall") {
		t.Fatalf("metrics dump leaks wall-clock:\n%s", buf.String())
	}
	if decoded["memo_hits"].(float64) != 1 || decoded["memo_misses"].(float64) != 1 {
		t.Fatalf("memo counts wrong: %v", decoded)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	col := NewCollector()
	k := Key{Workload: "w", System: "aurora"}
	tr := col.Cell(k)
	tr.Span(Span{Name: "kern", Cat: "kernel", GPU: 1, Stack: 0, Start: 0, End: 1e-6, Flops: 64})
	tr.Span(Span{Name: "flow", Cat: "flow", GPU: -1, Stack: -1, Start: 0, End: 2e-6, Bytes: units.Bytes(32)})
	col.Finish(k, 0, nil)
	var buf bytes.Buffer
	if err := col.Report().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []chrometrace.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 1 process_name + 2 thread_name metadata + 2 complete events.
	if len(tf.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5:\n%s", len(tf.TraceEvents), buf.String())
	}
	if tf.TraceEvents[0].Ph != "M" || tf.TraceEvents[0].Args["name"] != "w @ aurora" {
		t.Fatalf("first event is not the process_name metadata: %+v", tf.TraceEvents[0])
	}
	var sawKern, sawFlow bool
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Name == "kern":
			sawKern = true
			if e.TID != 1+1*100+0 || *e.Dur != 1 || e.Args["flops"].(float64) != 64 {
				t.Fatalf("kern event wrong: %+v", e)
			}
		case e.Name == "flow":
			sawFlow = true
			if e.TID != 0 || *e.Dur != 2 || e.Args["bytes"].(float64) != 32 {
				t.Fatalf("flow event wrong: %+v", e)
			}
		}
	}
	if !sawKern || !sawFlow {
		t.Fatalf("missing complete events:\n%s", buf.String())
	}
}

func TestSummary(t *testing.T) {
	col := NewCollector()
	k := Key{Workload: "w", System: "aurora"}
	col.Cell(k).Span(Span{Name: "k", Start: 0, End: 1})
	col.Finish(k, 5*time.Millisecond, nil)
	col.MemoMiss()
	var buf bytes.Buffer
	if err := col.Report().Summary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"w @ aurora", "memo: 1 computed, 0 cached"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestSummaryGolden pins the exact bytes of the human summary table:
// the tabwriter layout, the SimEnd formatting, the per-cell error
// suffix, the memo line, and the orphan-finish warning. Wall-clock
// durations are inputs here, so the output is fully deterministic.
func TestSummaryGolden(t *testing.T) {
	col := NewCollector()
	good := Key{Workload: "clover-scaling", System: "aurora", Params: "ranks=12"}
	col.Cell(good).Span(Span{Name: "k", Start: 0, End: 0.25})
	col.Finish(good, 1500*time.Microsecond, nil)
	bad := Key{Workload: "gemm", System: "dawn"}
	col.Cell(bad)
	col.Finish(bad, 250*time.Microsecond, errors.New("boom"))
	col.MemoMiss()
	col.MemoMiss()
	col.MemoHit()
	// An orphan: finished without ever registering a trace.
	col.Finish(Key{Workload: "ghost", System: "h100"}, 0, nil)
	var buf bytes.Buffer
	if err := col.Report().Summary(&buf); err != nil {
		t.Fatal(err)
	}
	want := "CELL                                EVENTS  SIM END  WALL\n" +
		"clover-scaling @ aurora [ranks=12]  1       0.25s    1.5ms\n" +
		"gemm @ dawn                         0       0s       250µs  ERROR: boom\n" +
		"ghost @ h100                        0       0s       0s\n" +
		"total                                                1.75ms\n" +
		"memo: 2 computed, 1 cached\n" +
		"WARNING: 1 orphan finish(es) — outcome recorded for cell(s) that never registered a trace\n"
	if got := buf.String(); got != want {
		t.Fatalf("summary drifted from golden:\n got: %q\nwant: %q", got, want)
	}
}

// TestOrphanFinish covers the Finish-without-Cell path: the outcome is
// kept (wall and error survive into the report), but the bookkeeping
// slip is counted and exported instead of silently papered over.
func TestOrphanFinish(t *testing.T) {
	col := NewCollector()
	k := Key{Workload: "w", System: "aurora"}
	col.Cell(k)
	col.Finish(k, 0, nil)
	col.Finish(Key{Workload: "ghost", System: "dawn"}, 7*time.Millisecond, errors.New("lost"))
	rep := col.Report()
	if rep.OrphanFinishes != 1 {
		t.Fatalf("OrphanFinishes = %d, want 1", rep.OrphanFinishes)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (orphan outcome must not be dropped)", len(rep.Cells))
	}
	ghost := rep.Cells[0] // "ghost" sorts before "w"
	if ghost.Workload != "ghost" || ghost.Wall != 7*time.Millisecond || ghost.Error != "lost" {
		t.Fatalf("orphan outcome lost: %+v", ghost)
	}
	var buf bytes.Buffer
	if err := rep.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"orphan_finishes": 1`) {
		t.Fatalf("metrics export missing orphan_finishes:\n%s", buf.String())
	}

	// A clean run exports orphan_finishes: 0 and prints no warning.
	clean := NewCollector()
	clean.Cell(k)
	clean.Finish(k, 0, nil)
	buf.Reset()
	if err := clean.Report().Summary(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "WARNING") {
		t.Fatalf("clean run prints an orphan warning:\n%s", buf.String())
	}
}

func TestKeyString(t *testing.T) {
	if got := (Key{Workload: "w", System: "s"}).String(); got != "w @ s" {
		t.Fatalf("Key.String() = %q", got)
	}
	if got := (Key{Workload: "w", System: "s", Params: "n=1"}).String(); got != "w @ s [n=1]" {
		t.Fatalf("Key.String() = %q", got)
	}
}
