package obs

import (
	"bytes"
	"os"
	"testing"
	"time"

	"pvcsim/internal/units"
)

// TestChromeTraceGolden pins the simulated-time Chrome trace byte for
// byte: process names with and without a params suffix, one thread per
// subdevice plus the fabric track, and complete events carrying every
// optional arg (bytes, flops, bound) as well as none.
func TestChromeTraceGolden(t *testing.T) {
	rep := &RunReport{Cells: []CellReport{
		{
			Workload: "clover", System: "aurora", Params: "nodes=2",
			spans: []Span{
				{Name: "h2d:0.0", Cat: "h2d", GPU: 0, Stack: 0, Start: 0, End: 3.3e-7, Bytes: units.MB, Bound: "pcie"},
				{Name: "d2d:0.1->1.0", Cat: "flow", GPU: -1, Stack: -1, Start: 1e-7, End: 2.5e-6, Bytes: 64 * units.KB},
				{Name: "hydro", Cat: "kernel", GPU: 0, Stack: 1, Start: 3.3e-7, End: 1.2345678e-3, Bytes: 2 * units.GB, Flops: 1.5e9, Bound: "hbm"},
				{Name: "fma", Cat: "kernel", GPU: 1, Stack: 0, Start: 2e-6, End: 2e-6, Flops: 1e12, Bound: "power.throttle"},
				{Name: "marker", Cat: "kernel", GPU: 0, Stack: 0, Start: 4e-6, End: 5e-6},
			},
		},
		{
			Workload: "triad", System: "dawn",
			spans: []Span{
				{Name: "triad", Cat: "kernel", GPU: 3, Stack: 1, Start: 1e-5, End: 0.1, Bytes: 24 * units.GB, Flops: 2e9, Bound: "cache.l2"},
			},
		},
	}}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
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

// metricsFixture is a run report that reaches every branch of the
// metrics encoding: params and error both present and absent, counters
// present, nil and empty (both omitted), floats on either side of the
// exponent cutoffs (1e-6, 1e21) plus zero, negatives and a long
// mantissa, and names that need JSON escaping (HTML-unsafe bytes,
// quote, backslash, control bytes, U+2028/U+2029 and invalid UTF-8). Wall
// and spans are set but never exported.
func metricsFixture() *RunReport {
	return &RunReport{MemoHits: 3, MemoMisses: 2, OrphanFinishes: 1, Cells: []CellReport{
		{
			Workload: "clover", System: "aurora", Params: "nodes=2",
			Events: 7, SimEnd: 1.2345678901234567e-3, Wall: time.Second,
			Counters: []Counter{
				{Name: "fabric.bytes", Value: 1e20},
				{Name: "fabric.flows", Value: 0},
				{Name: "model.flops", Value: 1e21},
				{Name: "tiny", Value: 1e-7},
				{Name: "edge", Value: 1e-6},
				{Name: "sum", Value: 0.30000000000000004},
				{Name: "neg", Value: -2.5e-9},
			},
			spans: []Span{{Name: "k", Start: 0, End: 1}},
		},
		{
			Workload: "bad<>&\"\\\x01\b\f\u2028\u2029\xff", System: "dawn",
			Error: "boom: <nil> & \"quoted\"\t\n", Counters: []Counter{},
		},
		{Workload: "triad", System: "dawn", Params: "n=1", Error: "e", Events: 1, SimEnd: -0.5},
	}}
}

// TestMetricsGolden pins the metrics JSON byte for byte. The golden
// holds two documents back to back: the fixture, then an empty report,
// whose nil Cells is written as null.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, rep := range []*RunReport{metricsFixture(), {}} {
		if err := rep.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/metrics.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics differ from testdata/metrics.golden.json:\n%s", buf.String())
	}
}
