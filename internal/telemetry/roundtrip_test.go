package telemetry

import (
	"bytes"
	"math"
	"testing"
)

// TestFullTelemetryPageRoundTrips runs the daemon's real metric catalog
// through the strict parser: the page parses, and every value the
// process recorded reads back unchanged, unobserved series as zero.
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

	var page bytes.Buffer
	if err := tele.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseMetrics(bytes.NewReader(page.Bytes()))
	if err != nil {
		t.Fatalf("telemetry page does not strict-parse: %v", err)
	}
	submitOK := map[string]string{"route": "runs_submit", "outcome": "ok"}
	cases := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"pvcd_runs_started_total", nil, 1},
		{"pvcd_runs_completed_total", nil, 0},
		{"pvcd_run_cache_hits_total", nil, 1},
		{"pvcd_sse_keepalives_total", nil, 3},
		{"pvcd_sse_resumes_total", nil, 1},
		{"pvcsim_http_request_duration_seconds_count", submitOK, 1},
		{"pvcsim_http_request_duration_seconds_sum", submitOK, 0.042},
		{"pvcsim_http_request_duration_seconds_sum",
			map[string]string{"route": "runs_submit", "outcome": "cache-hit"}, 0.0007},
		{"pvcsim_http_request_duration_seconds_count",
			map[string]string{"route": "history", "outcome": "ok"}, 1},
		{"pvcsim_runner_phase_seconds_count", map[string]string{"phase": "cache-wait"}, 1},
		{"pvcsim_runner_phase_seconds_sum", map[string]string{"phase": "cache-wait"}, 0.0001},
	}
	for _, c := range cases {
		got, ok := fams.Value(c.name, c.labels)
		if !ok {
			t.Errorf("%s%v missing from the parsed page", c.name, c.labels)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
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
	if got := h2.s.sum; math.Abs(got-100) > 1e-9 {
		t.Errorf("sum = %g, want 100", got)
	}
}
