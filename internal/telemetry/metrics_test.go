package telemetry

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"testing"
)

// TestRegistryRoundTrip renders a populated registry and re-reads it
// through the strict parser: every family, label set, and histogram
// invariant must survive.
func TestRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "operations")
	c.Add(3)
	cv := reg.CounterVec("test_cells_total", "cells by status", "status")
	cv.With("ok").Add(5)
	cv.With("error").Inc()
	g := reg.Gauge("test_depth", "queue depth")
	g.Set(7)
	g.Dec()
	h := reg.HistogramVec("test_wall_seconds", "latency", []float64{0.1, 1, 10}, "workload")
	h.With("dgemm").Observe(0.05)
	h.With("dgemm").Observe(0.5)
	h.With("dgemm").Observe(100)
	h.With("fft").Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	fams, err := ParseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatalf("rendered page does not parse: %v\n%s", err, page)
	}

	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"test_ops_total", nil, 3},
		{"test_cells_total", map[string]string{"status": "ok"}, 5},
		{"test_cells_total", map[string]string{"status": "error"}, 1},
		{"test_depth", nil, 6},
		{"test_wall_seconds_count", map[string]string{"workload": "dgemm"}, 3},
		{"test_wall_seconds_bucket", map[string]string{"workload": "dgemm", "le": "0.1"}, 1},
		{"test_wall_seconds_bucket", map[string]string{"workload": "dgemm", "le": "1"}, 2},
		{"test_wall_seconds_bucket", map[string]string{"workload": "dgemm", "le": "+Inf"}, 3},
		{"test_wall_seconds_count", map[string]string{"workload": "fft"}, 1},
	}
	for _, tc := range checks {
		got, ok := sampleValue(fams, tc.name, tc.labels)
		if !ok {
			t.Errorf("%s%v: sample missing", tc.name, tc.labels)
			continue
		}
		if got != tc.want {
			t.Errorf("%s%v = %g, want %g", tc.name, tc.labels, got, tc.want)
		}
	}
	if fams["test_wall_seconds"].Type != "histogram" {
		t.Errorf("test_wall_seconds TYPE = %q, want histogram", fams["test_wall_seconds"].Type)
	}
	if !strings.Contains(page, "# HELP test_ops_total operations") {
		t.Error("missing HELP line for test_ops_total")
	}
}

// TestRegistryDeterministicRender checks that two registries fed the
// same updates render byte-identically, whatever order series were
// touched in.
func TestRegistryDeterministicRender(t *testing.T) {
	build := func(order []string) string {
		reg := NewRegistry()
		cv := reg.CounterVec("t_total", "t", "k")
		for _, k := range order {
			cv.With(k).Inc()
		}
		reg.Gauge("a_gauge", "a").Set(1)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"})
	if a != b {
		t.Errorf("render order depends on touch order:\n%s\nvs\n%s", a, b)
	}
}

// TestLabelEscaping round-trips label values with quotes, backslashes,
// and newlines.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	tricky := "he said \"hi\\there\"\nbye"
	reg.CounterVec("esc_total", "escapes", "v").With(tricky).Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if v, ok := sampleValue(fams, "esc_total", map[string]string{"v": tricky}); !ok || v != 1 {
		t.Errorf("escaped label did not round-trip: %q\n%s", tricky, buf.String())
	}
}

// TestParseRejects feeds the parser malformed pages and expects errors.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":   "orphan_total 3\n",
		"bad value":            "# TYPE x_total counter\nx_total banana\n",
		"bad type":             "# TYPE x_total banana\nx_total 3\n",
		"unterminated labels":  "# TYPE x_total counter\nx_total{a=\"b 3\n",
		"duplicate label":      "# TYPE x_total counter\nx_total{a=\"1\",a=\"2\"} 3\n",
		"histogram no inf":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram decreasing": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram bad count":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
	}
	for name, page := range cases {
		if _, err := ParseMetrics(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, page)
		}
	}
}

// TestParseAcceptsSpecials covers +Inf/-Inf/NaN values and ignored
// comments.
func TestParseAcceptsSpecials(t *testing.T) {
	page := "# a free comment\n# TYPE weird gauge\nweird +Inf\n"
	fams, err := ParseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sampleValue(fams, "weird", nil); !ok || !math.IsInf(v, +1) {
		t.Errorf("weird = %v, want +Inf", v)
	}
}

// gaugeValue reads a gauge's current value.
func gaugeValue(g *Gauge) float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// sampleValue returns the value of the parsed sample with exactly this
// name and label set.
func sampleValue(fams Families, name string, labels map[string]string) (float64, bool) {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name && maps.Equal(s.Labels, labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}
