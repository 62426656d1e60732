package reqtrace_test

import (
	"bytes"
	"os"
	"testing"

	"pvcsim/internal/reqtrace"
)

// TestChromeTraceGolden pins the request Chrome trace byte for byte: a
// finished trace with an outcome and spans with and without detail,
// and a live trace rendered up to the current clock reading.
func TestChromeTraceGolden(t *testing.T) {
	tr, c := newFakeTracer()
	c.advance(1_000)
	done := tr.Start("POST /v1/runs")
	q := done.Now()
	c.advance(2_500)
	done.AddSpan("queue-wait", "triad @ aurora", q)
	r := done.Now()
	c.advance(40_125)
	done.AddSpan("run", "", r)
	live := tr.Start("GET /v1/runs/r0001/events")
	c.advance(333)
	live.AddSpan("cache-lookup", "p2p @ dawn", live.Now())
	done.Finish(reqtrace.OutcomeOK)
	c.advance(7_000)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/chrometrace.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace differs from testdata/chrometrace.golden.json:\n%s", buf.String())
	}
}
