package telemetry

import (
	"bytes"
	"math"
	"testing"
)

// familiesEquivalent compares two parses structurally. It cannot use
// reflect.DeepEqual because the exposition format admits NaN sample
// values (NaN != NaN); values are compared bitwise instead.
func familiesEquivalent(a, b Families) bool {
	if len(a) != len(b) {
		return false
	}
	for name, fa := range a {
		fb, ok := b[name]
		if !ok || fa == nil || fb == nil {
			return false
		}
		if fa.Name != fb.Name || fa.Type != fb.Type || fa.Help != fb.Help ||
			len(fa.Samples) != len(fb.Samples) {
			return false
		}
		for i := range fa.Samples {
			sa, sb := fa.Samples[i], fb.Samples[i]
			if sa.Name != sb.Name || math.Float64bits(sa.Value) != math.Float64bits(sb.Value) || len(sa.Labels) != len(sb.Labels) {
				return false
			}
			if len(sa.LabelNames) != len(sb.LabelNames) {
				return false
			}
			for j := range sa.LabelNames {
				if sa.LabelNames[j] != sb.LabelNames[j] {
					return false
				}
			}
			for k, v := range sa.Labels {
				if got, ok := sb.Labels[k]; !ok || got != v {
					return false
				}
			}
		}
	}
	return true
}

// FuzzParseMetrics hammers the strict Prometheus text parser with
// arbitrary pages: it must never panic, must be deterministic (the CI
// smoke check and pvcd -validate-metrics both depend on reproducible
// verdicts), and every family it accepts must be internally coherent.
func FuzzParseMetrics(f *testing.F) {
	seeds := []string{
		"",
		"# HELP pvc_runs_total Completed runs.\n# TYPE pvc_runs_total counter\npvc_runs_total 3\n",
		"# TYPE pvc_active_runs gauge\npvc_active_runs{state=\"running\"} 2\npvc_active_runs{state=\"queued\"} 0\n",
		"# TYPE pvc_run_seconds histogram\n" +
			"pvc_run_seconds_bucket{le=\"0.1\"} 1\n" +
			"pvc_run_seconds_bucket{le=\"1\"} 3\n" +
			"pvc_run_seconds_bucket{le=\"+Inf\"} 4\n" +
			"pvc_run_seconds_sum 2.5\n" +
			"pvc_run_seconds_count 4\n",
		"pvc_orphan 1\n",                         // sample without a TYPE
		"# TYPE pvc_bad counter\npvc_bad oops\n", // non-numeric value
		"# TYPE pvc_nan gauge\npvc_nan NaN\n",
		"# TYPE pvc_x counter\npvc_x{a=\"b\",} 1\n",
		"# TYPE d histogram\nd_bucket{le=\"+Inf\"} 2\nd_sum 1\nd_count 3\n", // +Inf != count
		// Labelled histogram series like the request-latency SLO metric:
		// route/outcome labels with le last, the shape Quantile reads.
		"# HELP pvcsim_http_request_duration_seconds wall-clock HTTP request latency, by route and outcome\n" +
			"# TYPE pvcsim_http_request_duration_seconds histogram\n" +
			"pvcsim_http_request_duration_seconds_bucket{route=\"runs_submit\",outcome=\"ok\",le=\"0.005\"} 1\n" +
			"pvcsim_http_request_duration_seconds_bucket{route=\"runs_submit\",outcome=\"ok\",le=\"+Inf\"} 2\n" +
			"pvcsim_http_request_duration_seconds_sum{route=\"runs_submit\",outcome=\"ok\"} 0.25\n" +
			"pvcsim_http_request_duration_seconds_count{route=\"runs_submit\",outcome=\"ok\"} 2\n",
		// Integer-rendered bucket/count values past a million.
		"# TYPE pvc_big_seconds histogram\n" +
			"pvc_big_seconds_bucket{le=\"1\"} 1000000\n" +
			"pvc_big_seconds_bucket{le=\"+Inf\"} 2500000\n" +
			"pvc_big_seconds_sum 1.5e+06\n" +
			"pvc_big_seconds_count 2500000\n",
		// Quantile-ish summary lines: a plain gauge family carrying a
		// quantile label must parse as ordinary labelled samples.
		"# TYPE pvc_latency gauge\npvc_latency{quantile=\"0.5\"} 0.01\npvc_latency{quantile=\"0.99\"} 1.5\n",
		"# HELP only_help has help but no type\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseMetrics(bytes.NewReader(data))
		fams2, err2 := ParseMetrics(bytes.NewReader(data))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic verdict: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if !familiesEquivalent(fams, fams2) {
			t.Fatalf("non-deterministic parse of %q", data)
		}
		for name, fam := range fams {
			if fam == nil {
				t.Fatalf("family %q is nil", name)
			}
			if fam.Name != name {
				t.Fatalf("family %q stored under key %q", fam.Name, name)
			}
			if fam.Type == "" {
				t.Fatalf("family %q accepted without a TYPE", name)
			}
			for _, s := range fam.Samples {
				if s.Name == "" {
					t.Fatalf("family %q has a sample with no name", name)
				}
			}
		}
	})
}
