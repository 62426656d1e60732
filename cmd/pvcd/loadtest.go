package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"pvcsim/internal/telemetry"
)

// loadtestOutcomes is the fixed reporting order: every outcome prints
// even at zero, so scripts can grep for a line unconditionally.
var loadtestOutcomes = []string{"ok", "cache-hit", "error", "rejected"}

// runLoadtest is `pvcd loadtest`: drive synchronous (wait-mode) run
// submissions at a fixed concurrency against a live daemon and report
// wall-clock latency percentiles and outcome rates. Latencies feed the
// same telemetry.Histogram the daemon's own SLO metrics use, so the
// quantiles printed here and the ones a scraper derives from
// pvcsim_http_request_duration_seconds come from one code path.
func runLoadtest(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcd loadtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8321", "daemon host:port")
	workloadName := fs.String("workload", "clover-scaling", "workload to submit on every request")
	systems := fs.String("systems", "aurora", "comma-separated systems for every request")
	requests := fs.Int("requests", 20, "total requests to issue")
	concurrency := fs.Int("concurrency", 4, "in-flight request cap")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests <= 0 || *concurrency <= 0 {
		fmt.Fprintln(stderr, "pvcd loadtest: -requests and -concurrency must be positive")
		return 2
	}
	if *concurrency > *requests {
		*concurrency = *requests
	}

	spec := map[string]any{"workload": *workloadName, "wait": true}
	if *systems != "" {
		spec["systems"] = splitComma(*systems)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintln(stderr, "pvcd loadtest:", err)
		return 2
	}
	url := "http://" + *addr + "/v1/runs"
	client := &http.Client{Timeout: *timeout}

	reg := telemetry.NewRegistry()
	latency := reg.Histogram("pvcd_loadtest_request_duration_seconds",
		"wall-clock latency of loadtest run submissions", telemetry.WallBuckets)
	outcomes := reg.CounterVec("pvcd_loadtest_outcomes_total",
		"loadtest requests by outcome", "outcome")
	for _, o := range loadtestOutcomes {
		outcomes.With(o).Add(0)
	}

	var wg sync.WaitGroup
	work := make(chan struct{})
	start := time.Now()
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				outcome := oneLoadtestRequest(client, url, body)
				latency.Observe(time.Since(t0).Seconds())
				outcomes.With(outcome).Inc()
			}
		}()
	}
	for i := 0; i < *requests; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "loadtest: %d request(s) at concurrency %d against %s in %s (%.1f req/s)\n",
		*requests, *concurrency, *addr, elapsed.Round(time.Millisecond),
		float64(*requests)/elapsed.Seconds())
	fmt.Fprintf(stdout, "workload %s on %s (wait mode)\n", *workloadName, *systems)
	failures := 0.0
	for _, o := range loadtestOutcomes {
		n := outcomes.With(o).Value()
		fmt.Fprintf(stdout, "  %-10s %4.0f  (%.1f%%)\n", o, n, n/float64(*requests)*100)
		if o == "error" || o == "rejected" {
			failures += n
		}
	}
	fmt.Fprintf(stdout, "latency p50 %.4fs  p95 %.4fs  p99 %.4fs  (histogram estimates)\n",
		latency.Quantile(0.50), latency.Quantile(0.95), latency.Quantile(0.99))
	if failures > 0 {
		fmt.Fprintf(stderr, "pvcd loadtest: %.0f request(s) failed\n", failures)
		return 1
	}
	return 0
}

// oneLoadtestRequest issues a single wait-mode submission and
// classifies it with the daemon's outcome vocabulary.
func oneLoadtestRequest(client *http.Client, url string, body []byte) string {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "error"
	}
	defer resp.Body.Close()
	var st struct {
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return "rejected"
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		io.Copy(io.Discard, resp.Body)
		return "error"
	}
	switch {
	case st.Cached:
		return "cache-hit"
	case st.Status == "done":
		return "ok"
	default:
		return "error"
	}
}

// splitComma splits a comma-separated flag value, dropping empties.
func splitComma(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
