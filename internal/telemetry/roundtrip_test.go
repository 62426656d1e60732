package telemetry

import (
	"bytes"
	"math"
	"testing"
)

// populatedRegistry builds a registry exercising every family kind and
// label shape the daemon emits: plain counters, gauges, labelled
// counters, and labelled histograms with fractional and integral
// bucket values.
func populatedRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("rt_runs_total", "runs; with \"quotes\" and a \\ backslash")
	c.Add(3)
	g := reg.Gauge("rt_inflight", "in-flight runs")
	g.Set(2.5)
	cv := reg.CounterVec("rt_http_requests_total", "requests by route", "route")
	cv.With("runs_submit").Add(7)
	cv.With("metrics").Inc()
	hv := reg.HistogramVec("rt_request_seconds", "latency by route and outcome",
		WallBuckets, "route", "outcome")
	for _, v := range []float64{0.0004, 0.002, 0.002, 0.04, 0.9, 12, 300} {
		hv.With("runs_submit", "ok").Observe(v)
	}
	hv.With("runs_submit", "cache-hit").Observe(0.001)
	h := reg.Histogram("rt_lane_util", "unlabelled histogram",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99})
	h.Observe(0.5)
	// A long-lived daemon's counts pass a million: %d-rendered
	// _bucket/_count values must survive the round trip without being
	// re-spelled as "1.234567e+06".
	big := reg.Histogram("rt_big_count", "histogram with count >= 1e6", []float64{1})
	for i := 0; i < 1_234_567; i++ {
		big.Observe(0.5)
	}
	return reg
}

// TestEmitParseReemitIsByteIdentical is the round-trip property: a page
// rendered by WritePrometheus, parsed by the strict parser, and
// re-rendered by WriteText reproduces the original bytes exactly. This
// pins the canonical form end to end — family order, label order, le
// placement, help escaping, and value formatting all survive a parse.
func TestEmitParseReemitIsByteIdentical(t *testing.T) {
	reg := populatedRegistry()
	var first bytes.Buffer
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseMetrics(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("own output does not strict-parse: %v", err)
	}
	var second bytes.Buffer
	if err := fams.WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		i := firstDiff(first.Bytes(), second.Bytes())
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clamp := func(b []byte) string {
			if hi > len(b) {
				return string(b[lo:])
			}
			return string(b[lo:hi])
		}
		t.Fatalf("round trip diverges at byte %d:\n emit: …%q…\n re-emit: …%q…",
			i, clamp(first.Bytes()), clamp(second.Bytes()))
	}
}

// TestFullTelemetryPageRoundTrips runs the same property over the
// daemon's real metric catalog, not a synthetic registry.
func TestFullTelemetryPageRoundTrips(t *testing.T) {
	tele := New()
	tele.RunsStarted.Inc()
	tele.HTTPDuration.With("runs_submit", "ok").Observe(0.042)
	tele.HTTPDuration.With("runs_submit", "cache-hit").Observe(0.0007)
	tele.HTTPDuration.With("history", "ok").Observe(0.001)
	tele.RunCacheHits.Inc()
	tele.SSEKeepalives.Add(3)
	tele.SSEResumes.Inc()
	tele.PhaseWall.With("cache-wait").Observe(0.0001)

	var first bytes.Buffer
	if err := tele.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseMetrics(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("telemetry page does not strict-parse: %v", err)
	}
	var second bytes.Buffer
	if err := fams.WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("telemetry page diverges at byte %d", firstDiff(first.Bytes(), second.Bytes()))
	}
}

// TestParseWriteTextPreservesValueSpelling pins the fix directly: a
// page whose histogram _bucket/_count values are written as integers
// (the WritePrometheus %d form) re-renders byte-identically even when
// strconv's 'g' format would switch those values to exponent notation.
func TestParseWriteTextPreservesValueSpelling(t *testing.T) {
	page := "# TYPE pvc_big_seconds histogram\n" +
		"pvc_big_seconds_bucket{le=\"1\"} 1000000\n" +
		"pvc_big_seconds_bucket{le=\"+Inf\"} 2500000\n" +
		"pvc_big_seconds_sum 1.5e+06\n" +
		"pvc_big_seconds_count 2500000\n"
	fams, err := ParseMetrics(bytes.NewReader([]byte(page)))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := fams.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != page {
		t.Fatalf("value spellings not preserved:\n in: %q\nout: %q", page, out.String())
	}
}

func TestHistogramQuantile(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q", "quantile fixture", []float64{1, 2, 4, 8})

	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram must yield NaN")
	}

	// 100 samples spread 25 per bucket over (0,1], (1,2], (2,4], (4,8].
	for i := 0; i < 25; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(3)
		h.Observe(6)
	}
	// Linear interpolation within the matched bucket, PromQL-style:
	// the 50th of 100 samples sits at the top of bucket (1,2].
	if got := h.Quantile(0.50); math.Abs(got-2) > 1e-9 {
		t.Errorf("p50 = %g, want 2", got)
	}
	// 95th sample: 20 into the 25-sample (4,8] bucket → 4 + 4*(20/25).
	if got := h.Quantile(0.95); math.Abs(got-7.2) > 1e-9 {
		t.Errorf("p95 = %g, want 7.2", got)
	}
	// q clamps: 0 → bottom edge territory, 1 → top finite bound.
	if got := h.Quantile(1); math.Abs(got-8) > 1e-9 {
		t.Errorf("p100 = %g, want 8", got)
	}
	if got := h.Quantile(-5); math.IsNaN(got) || got > 1 {
		t.Errorf("q<0 must clamp into the first bucket, got %g", got)
	}

	// Samples beyond the last finite bound clamp to it (PromQL's +Inf
	// bucket convention), never extrapolate.
	h2 := reg.Histogram("q2", "overflow fixture", []float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.99); math.Abs(got-1) > 1e-9 {
		t.Errorf("overflow quantile = %g, want clamp to 1", got)
	}

	// Sum is tracked alongside.
	if got := h2.Sum(); math.Abs(got-100) > 1e-9 {
		t.Errorf("sum = %g, want 100", got)
	}
}
