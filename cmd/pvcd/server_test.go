package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/telemetry"
)

// testServer boots an in-process daemon and returns it with its HTTP
// front end.
func testServer(t *testing.T, jobs int) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), jobs)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submitRun POSTs a spec and returns the accepted run ID.
func submitRun(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status %d: %s", spec, resp.StatusCode, body)
	}
	var out struct{ ID string }
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("submit response: %v: %s", err, body)
	}
	if out.ID == "" {
		t.Fatalf("submit response has no id: %s", body)
	}
	return out.ID
}

// waitRun blocks until the run leaves "running".
func waitRun(t *testing.T, s *server, id string) *apiRun {
	t.Helper()
	s.mu.Lock()
	rn := s.runs[id]
	s.mu.Unlock()
	if rn == nil {
		t.Fatalf("run %s not registered", id)
	}
	select {
	case <-rn.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("run %s did not finish", id)
	}
	return rn
}

// getJSON GETs a path and decodes the JSON body.
func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: %v: %s", path, err, body)
	}
}

// TestSubmitStatusAndRunMetrics is the happy path: submit one workload,
// wait, read status and the simulated metrics export.
func TestSubmitStatusAndRunMetrics(t *testing.T) {
	s, ts := testServer(t, 2)
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"],"jobs":2}`)
	waitRun(t, s, id)

	var st statusJSON
	getJSON(t, ts, "/v1/runs/"+id, &st)
	if st.Status != "done" {
		t.Fatalf("status = %s (error %q), want done", st.Status, st.Error)
	}
	if st.CellsTotal != 1 || len(st.Cells) != 1 {
		t.Fatalf("cells_total=%d cells=%d, want 1/1", st.CellsTotal, len(st.Cells))
	}
	if c := st.Cells[0]; c.Workload != "p2p" || c.System != "Aurora" || c.Status != "ok" {
		t.Fatalf("cell = %+v", c)
	}
	if st.CellsStarted != 1 || st.CellsFinished != 1 {
		t.Fatalf("started/finished = %d/%d, want 1/1", st.CellsStarted, st.CellsFinished)
	}

	var export struct {
		MemoMisses int64 `json:"memo_misses"`
		Cells      []struct {
			Workload string `json:"workload"`
			System   string `json:"system"`
			Events   int    `json:"events"`
		} `json:"cells"`
	}
	getJSON(t, ts, "/v1/runs/"+id+"/metrics", &export)
	if len(export.Cells) != 1 || export.Cells[0].Workload != "p2p" {
		t.Fatalf("metrics export cells = %+v", export.Cells)
	}
	if export.Cells[0].Events == 0 {
		t.Fatal("metrics export recorded no spans; collector was not attached")
	}

	var list struct{ Runs []statusJSON }
	getJSON(t, ts, "/v1/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != id {
		t.Fatalf("run list = %+v", list.Runs)
	}
}

// TestSSEReplay reads the full event stream of a finished run: every
// lifecycle phase must appear, in valid SSE framing, ending with the
// run-done event.
func TestSSEReplay(t *testing.T) {
	s, ts := testServer(t, 1)
	// Two cells of the same key: one compute, one memo hit.
	id := submitRun(t, ts, `{"workload":"p2p"}`)
	waitRun(t, s, id)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	phases := map[string]int{}
	var lastSeq int64 = -1
	sc := bufio.NewScanner(resp.Body)
	var eventName string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var e event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
			if e.Seq != lastSeq+1 {
				t.Fatalf("event seq %d after %d; stream must be gapless", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			phases[e.Phase]++
			if e.Phase == "run-done" {
				if eventName != "run" {
					t.Fatalf("run-done framed as event %q, want run", eventName)
				}
				if e.Status != "done" {
					t.Fatalf("run-done status = %q", e.Status)
				}
			} else if eventName != "cell" {
				t.Fatalf("phase %s framed as event %q, want cell", e.Phase, eventName)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// p2p runs on aurora and dawn: 2 queued, 2 starts, 2 finishes, no
	// cache hits (distinct systems), one run-done.
	for phase, want := range map[string]int{"queued": 2, "start": 2, "finish": 2, "run-done": 1} {
		if phases[phase] != want {
			t.Errorf("phase %s seen %d times, want %d (all: %v)", phase, phases[phase], want, phases)
		}
	}
}

// TestSSELiveSubscriber subscribes before the run finishes and still
// sees the terminal event — the stream is live, not only a replay.
func TestSSELiveSubscriber(t *testing.T) {
	s, ts := testServer(t, 1)
	id := submitRun(t, ts, `{"workload":"clover-scaling","systems":["aurora"]}`)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sawDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.Contains(sc.Text(), `"phase":"run-done"`) {
				sawDone <- nil
				return
			}
		}
		sawDone <- fmt.Errorf("stream ended without run-done: %v", sc.Err())
	}()
	waitRun(t, s, id)
	select {
	case err := <-sawDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("live subscriber never saw run-done")
	}
}

// TestMetricsEndpoint checks /metrics strict-parses and carries the
// expected counter values after one successful run.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := testServer(t, 1)
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"]}`)
	waitRun(t, s, id)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("content-type = %q", resp.Header.Get("Content-Type"))
	}
	page, _ := io.ReadAll(resp.Body)
	fams, err := telemetry.ParseMetrics(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, page)
	}
	expect := map[string]float64{
		"pvcd_runs_started_total":       1,
		"pvcd_runs_completed_total":     1,
		"pvcd_runs_failed_total":        0,
		"pvcd_runs_inflight":            0,
		"pvcsim_memo_misses_total":      1,
		"pvcsim_memo_hits_total":        0,
		"pvcsim_panic_recoveries_total": 0,
		"pvcsim_runner_queue_depth":     0,
		"pvcsim_runner_inflight":        0,
		"pvcsim_obs_orphan_finishes":    0,
	}
	for name, want := range expect {
		got, ok := sampleValue(fams, name, nil)
		if !ok {
			t.Errorf("%s missing from /metrics", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if v, ok := sampleValue(fams, "pvcsim_cell_wall_seconds_count", map[string]string{"workload": "p2p"}); !ok || v != 1 {
		t.Errorf("cell_wall_seconds_count{p2p} = %v (present=%v), want 1", v, ok)
	}
	if v, ok := sampleValue(fams, "pvcd_http_requests_total", map[string]string{"route": "runs_submit"}); !ok || v != 1 {
		t.Errorf("http_requests_total{runs_submit} = %v (present=%v), want 1", v, ok)
	}
	// Engine health: every run self-profiles, so the engine busy-time
	// counter must be present (its value is wall-clock and
	// run-dependent) and the phase histogram must have one build and one
	// simulate sample for the single computed cell.
	if v, ok := sampleValue(fams, "pvcsim_engine_lane_busy_seconds_total", nil); !ok || v < 0 {
		t.Errorf("pvcsim_engine_lane_busy_seconds_total = %v (present=%v), want present and >= 0", v, ok)
	}
	for _, phase := range []string{"build", "simulate"} {
		if v, ok := sampleValue(fams, "pvcsim_runner_phase_seconds_count", map[string]string{"phase": phase}); !ok || v != 1 {
			t.Errorf("runner_phase_seconds_count{%s} = %v (present=%v), want 1", phase, v, ok)
		}
	}
}

// TestDrainRefusesWork: after beginDrain, /readyz is 503 and new run
// submissions are refused, while /healthz stays 200.
func TestDrainRefusesWork(t *testing.T) {
	s, ts := testServer(t, 1)
	s.beginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"workload":"p2p"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if !s.awaitRuns(time.Second) {
		t.Error("awaitRuns with no runs in flight should drain cleanly")
	}
}

// TestBadRequests exercises the 4xx surface.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, 1)
	cases := []struct {
		spec string
		want int
	}{
		{`{"workload":"no-such-workload"}`, http.StatusBadRequest},
		{`{"workload":"p2p","systems":["nonsense"]}`, http.StatusBadRequest},
		{`{"workload":"lats","systems":["frontier"]}`, http.StatusBadRequest},
		{`{"unknown_field":true}`, http.StatusBadRequest},
		{`{"workload":"p2p","artifacts":true}`, http.StatusBadRequest},
		{`{"workload":"p2p","jobs":-1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("submit %s: status %d, want %d (%s)", tc.spec, resp.StatusCode, tc.want, body)
		}
	}
	for _, path := range []string{"/v1/runs/r9999", "/v1/runs/r9999/metrics", "/v1/runs/r9999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitBodyIsCapped pads a valid spec with leading whitespace past
// the body cap: the daemon must refuse it with 413 instead of reading
// the whole body, while the same spec unpadded is accepted.
func TestSubmitBodyIsCapped(t *testing.T) {
	s, ts := testServer(t, 1)
	spec := `{"workload":"energy","systems":["dawn"]}`
	padded := strings.Repeat(" ", 2<<20) + spec
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded submit: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	waitRun(t, s, submitRun(t, ts, spec))
}

// TestHTTPServerTimeouts pins the daemon's connection limits: bounded
// header reads and idle keep-alives, but no write or read deadline that
// would cut off SSE streams and wait-mode submits.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("addr %q handler %v: not the ones passed in", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v: want none, long-lived responses must not be cut off",
			srv.WriteTimeout, srv.ReadTimeout)
	}
}

// TestFailedRunCountsAsFailed submits a run whose workload cannot
// succeed on the chosen path and checks the failure metrics... p2p on
// every system includes H100/MI250 comparators where it is supported,
// so instead use the panic route: there is no registry workload that
// panics, so this test drives the status surface with an unsupported
// whole-registry restriction instead.
func TestWholeRegistryRestrictedRun(t *testing.T) {
	s, ts := testServer(t, 2)
	// Whole-registry run restricted to aurora: unsupported pairs are
	// skipped, so everything that runs should succeed.
	id := submitRun(t, ts, `{"systems":["aurora"],"jobs":2}`)
	rn := waitRun(t, s, id)
	st := s.statusOf(rn)
	if st.Status != "done" {
		t.Fatalf("registry run on aurora = %s (error %q)", st.Status, st.Error)
	}
	if st.CellsTotal < 10 {
		t.Fatalf("registry run has only %d cells; expected the full aurora column", st.CellsTotal)
	}
}

// TestValidateMetricsFile checks the -validate-metrics mode end to end.
func TestValidateMetricsFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	var buf bytes.Buffer
	if err := telemetry.New().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateMetricsFile(good); err != nil {
		t.Errorf("fresh telemetry page rejected: %v", err)
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("pvcd_runs_started_total banana\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateMetricsFile(bad); err == nil {
		t.Error("malformed page accepted")
	}

	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# TYPE something_else counter\nsomething_else 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateMetricsFile(empty); err == nil {
		t.Error("page without run counters accepted")
	}
}

// TestWorkloadsListing checks GET /v1/workloads exposes the expanded
// sweep cells: the legacy flat names plus the parameterized cluster
// cells, in registry (expansion) order.
func TestWorkloadsListing(t *testing.T) {
	_, ts := testServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rows []apiWorkload
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	byName := map[string]apiWorkload{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, want := range []string{"triad", "cloverleaf", "clover-strong/system=aurora,nodes=2,placement=packed", "allreduce/nodes=4,prec=fp32,algo=ring"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("listing is missing %q", want)
		}
	}
	if len(rows) < 27+30 {
		t.Errorf("listing has %d rows, want at least 57 (25 paper cells + lats + energy + 30 cluster cells)", len(rows))
	}
	cs := byName["clover-strong/system=frontier,nodes=4,placement=spread"]
	if len(cs.Systems) != 1 || cs.Systems[0] != "Frontier" {
		t.Errorf("clover-strong frontier cell lists systems %v, want [Frontier]", cs.Systems)
	}
}

// sampleValue returns the value of the parsed sample with exactly this
// name and label set.
func sampleValue(fams telemetry.Families, name string, labels map[string]string) (float64, bool) {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name && maps.Equal(s.Labels, labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}
