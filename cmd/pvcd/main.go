// Command pvcd is the long-running simulation service: it serves the
// full workload registry over HTTP with live telemetry underneath.
//
// Usage:
//
//	pvcd [-addr :8321] [-jobs N] [-drain-timeout 5s]
//	     [-history history.jsonl] [-sse-keepalive 15s]
//	     [-log-format text|json] [-log-level info]
//	pvcd -validate-metrics metrics.txt
//	pvcd -validate-history history.jsonl
//	pvcd loadtest [-addr host:port] [-requests N] [-concurrency N] ...
//
// -log-format and -log-level belong to the daemon alone: it is the only
// command in the repository that logs, so no other command or
// subcommand takes them.
//
// API:
//
//	GET  /v1/workloads             list every registry cell the sweep families expand to
//	POST /v1/runs                  submit {"workload","systems","jobs","artifacts","wait"}
//	GET  /v1/runs                  list run summaries
//	GET  /v1/runs/{id}             status, live progress counters, final cells
//	GET  /v1/runs/{id}/metrics     the run's simulated metrics export (obs JSON)
//	GET  /v1/runs/{id}/artifacts   deterministic zip of the paper artifact set
//	GET  /v1/runs/{id}/events      SSE stream of per-cell lifecycle events (Last-Event-ID resumes)
//	GET  /v1/history               the persistent run-history journal (404 without -history)
//	GET  /v1/reqtrace              request/run traces as Chrome trace-event JSON
//	GET  /metrics                  Prometheus text format (see DESIGN.md §10)
//	GET  /healthz, /readyz         liveness / readiness (503 while draining)
//
// Every response carries an X-Trace-ID header correlating it with the
// /v1/reqtrace track, the run-history journal, and the
// pvcsim_http_request_duration_seconds latency histogram (labelled by
// route and outcome). Telemetry, tracing, and history are strict
// wall-clock side channels: simulated results returned by the API are
// byte-identical to the CLIs' output with any worker count, with or
// without scrapers attached, and with the journal on or off. On
// SIGTERM/SIGINT the daemon flips /readyz to 503, refuses new runs,
// drains in-flight runs up to -drain-timeout, then exits 0.
//
// -validate-metrics parses a saved /metrics page with the strict
// exposition-format parser and checks the standard run counters are
// present; the CI smoke job uses it so "scrapeable" means parseable,
// not merely grep-matchable. -validate-history strict-parses a run
// journal and proves every record round-trips byte-exactly.
//
// The loadtest subcommand drives synchronous (wait-mode) runs at a
// fixed concurrency against a live daemon and reports latency
// percentiles and outcome rates from the same histogram code path the
// daemon's own SLO metrics use.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pvcsim/internal/history"
	"pvcsim/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "loadtest" {
		return runLoadtest(args[1:], os.Stdout, os.Stderr)
	}
	fs := flag.NewFlagSet("pvcd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8321", "listen address")
	jobs := fs.Int("jobs", 0, "default per-run simulation workers; 0 = all CPUs")
	drain := fs.Duration("drain-timeout", 5*time.Second, "how long to wait for in-flight runs on shutdown")
	validate := fs.String("validate-metrics", "", "parse a saved /metrics page strictly, check the run counters, and exit")
	historyPath := fs.String("history", "", "append-only JSONL run-history journal; empty disables history")
	sseKeepalive := fs.Duration("sse-keepalive", 15*time.Second, "idle interval between SSE keepalive comments")
	validateHistory := fs.String("validate-history", "", "strict-parse a run-history journal, prove byte-exact round-trips, and exit")
	var logf telemetry.LogFlags
	logf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := logf.Setup(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvcd:", err)
		return 2
	}
	// The daemon owns the process: make the flags' handler the slog
	// default so any library logging inherits the format too.
	slog.SetDefault(logger)

	if *validate != "" {
		if err := validateMetricsFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "pvcd: validate-metrics:", err)
			return 1
		}
		fmt.Printf("%s parses as Prometheus text format and carries the run counters\n", *validate)
		return 0
	}
	if *validateHistory != "" {
		n, err := history.Validate(*validateHistory)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pvcd: validate-history:", err)
			return 1
		}
		fmt.Printf("%s holds %d record(s); every one round-trips byte-exactly\n", *validateHistory, n)
		return 0
	}

	if *jobs <= 0 {
		*jobs = 0 // runner.New treats 0 as NumCPU; keep daemon default dynamic
	}
	s := newServer(logger, *jobs)
	if *sseKeepalive > 0 {
		s.sseKeepalive = *sseKeepalive
	}
	if *historyPath != "" {
		j, err := history.Open(*historyPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pvcd:", err)
			return 2
		}
		defer j.Close()
		s.journal = j
		logger.Info("run history enabled", "path", j.Path(), "records", j.Len())
	}
	httpSrv := newHTTPServer(*addr, s.handler())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("pvcd listening", "addr", *addr, "jobs", *jobs, "drain_timeout", drain.String())
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: readiness off, no new runs, wait for in-flight
	// work, then close the listener.
	logger.Info("shutdown signal received; draining", "timeout", drain.String())
	s.beginDrain()
	clean := s.awaitRuns(*drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	if clean {
		logger.Info("drained cleanly; exiting")
		return 0
	}
	logger.Warn("drain timed out; in-flight runs were cancelled")
	return 0
}

// validateMetricsFile is the -validate-metrics mode: strict-parse the
// page and require the daemon's run counters.
func validateMetricsFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fams, err := telemetry.ParseMetrics(f)
	if err != nil {
		return err
	}
	for _, name := range []string{
		"pvcd_runs_started_total",
		"pvcd_runs_completed_total",
		"pvcd_runs_failed_total",
		"pvcsim_memo_hits_total",
		"pvcsim_memo_misses_total",
		"pvcsim_panic_recoveries_total",
		"pvcsim_obs_orphan_finishes",
	} {
		fam, ok := fams[name]
		if !ok || len(fam.Samples) == 0 {
			return fmt.Errorf("metric %s missing from page", name)
		}
	}
	return nil
}

// newHTTPServer builds the daemon's HTTP server. ReadHeaderTimeout
// bounds how long a client may take to send its request headers, and
// IdleTimeout how long a keep-alive connection may sit between requests.
// There is deliberately no WriteTimeout (nor ReadTimeout, whose expiry
// cancels a running handler's context): SSE streams and wait-mode
// submits legitimately outlive any fixed deadline.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
