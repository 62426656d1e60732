package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/history"
	"pvcsim/internal/telemetry"
)

// postJSON posts a spec and returns the raw response.
func postJSON(t *testing.T, ts *httptest.Server, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

func TestEveryResponseCarriesTraceID(t *testing.T) {
	_, ts := testServer(t, 1)
	for _, path := range []string{"/healthz", "/metrics", "/v1/workloads", "/v1/reqtrace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if id := resp.Header.Get("X-Trace-ID"); id == "" {
			t.Errorf("GET %s: no X-Trace-ID header", path)
		}
	}
}

func TestWaitModeReturnsFinalStatus(t *testing.T) {
	_, ts := testServer(t, 2)
	resp, body := postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait-mode submit: status %d: %s", resp.StatusCode, body)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("wait-mode response: %v: %s", err, body)
	}
	if st.Status != "done" || st.Cached {
		t.Fatalf("first wait-mode run = %+v, want fresh done", st)
	}
	if st.TraceID == "" {
		t.Fatal("wait-mode status carries no trace_id")
	}
}

func TestWaitModeRepeatIsCacheHit(t *testing.T) {
	s, ts := testServer(t, 2)
	_, first := postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true}`)
	resp, second := postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat wait-mode submit: status %d: %s", resp.StatusCode, second)
	}
	var st1, st2 statusJSON
	if err := json.Unmarshal(first, &st1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("repeat spec not served from the completed-run cache: %+v", st2)
	}
	if st2.ID != st1.ID {
		t.Fatalf("cache hit answered with run %s, want the completed run %s", st2.ID, st1.ID)
	}
	if got := s.tele.RunCacheHits.Value(); got != 1 {
		t.Fatalf("pvcd_run_cache_hits_total = %g, want 1", got)
	}
	// Jobs differences must not defeat the cache (results are identical
	// across worker counts), but a different workload must miss.
	_, third := postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true,"jobs":4}`)
	var st3 statusJSON
	if err := json.Unmarshal(third, &st3); err != nil {
		t.Fatal(err)
	}
	if !st3.Cached {
		t.Fatalf("jobs-only spec change missed the cache: %+v", st3)
	}
	_, fourth := postJSON(t, ts, `{"workload":"triad","systems":["aurora"],"wait":true}`)
	var st4 statusJSON
	if err := json.Unmarshal(fourth, &st4); err != nil {
		t.Fatal(err)
	}
	if st4.Cached {
		t.Fatal("different workload must not be served from the cache")
	}
	// Async submissions of the same spec still run fresh.
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"]}`)
	rn := waitRun(t, s, id)
	if st := s.statusOf(rn); st.Cached {
		t.Fatal("async submission must never be answered from the cache")
	}
}

// cacheKeyOf resolves a spec on the server and keys its cells the way
// handleSubmit does.
func cacheKeyOf(t *testing.T, s *server, spec runSpec) string {
	t.Helper()
	cells, err := s.resolveCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	return runCacheKey(cells, spec.Artifacts)
}

func TestSpecCacheKeyNormalizesEquivalentSpecs(t *testing.T) {
	s, ts := testServer(t, 2)
	// Workload "" and "all" are documented as the same selection, and
	// system order never changes the exported bytes — both must map to
	// one cache key.
	a := cacheKeyOf(t, s, runSpec{Workload: "", Systems: []string{"dawn", "aurora"}})
	b := cacheKeyOf(t, s, runSpec{Workload: "all", Systems: []string{"aurora", "dawn"}})
	if a != b {
		t.Fatalf("equivalent specs key differently:\n %q\n %q", a, b)
	}
	if c := cacheKeyOf(t, s, runSpec{Workload: "p2p", Systems: []string{"aurora", "dawn"}}); c == a {
		t.Fatalf("distinct workload collides with %q", a)
	}
	if c := cacheKeyOf(t, s, runSpec{Systems: []string{"aurora", "dawn"}, Artifacts: true}); c == a {
		t.Fatalf("artifacts run collides with %q", a)
	}
	cells, err := s.resolveCells(runSpec{Systems: []string{"dawn", "aurora"}})
	if err != nil {
		t.Fatal(err)
	}
	head := cells[0]
	runCacheKey(cells, false)
	if cells[0] != head {
		t.Fatal("runCacheKey reordered the caller's cells")
	}

	// End to end: a repeat submission with systems reordered is served
	// from the completed-run cache.
	_, first := postJSON(t, ts, `{"workload":"p2p","systems":["aurora","dawn"],"wait":true}`)
	_, second := postJSON(t, ts, `{"workload":"p2p","systems":["dawn","aurora"],"wait":true}`)
	var st1, st2 statusJSON
	if err := json.Unmarshal(first, &st1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &st2); err != nil {
		t.Fatal(err)
	}
	if st1.Status != "done" || st1.Cached {
		t.Fatalf("first run = %+v, want fresh done", st1)
	}
	if !st2.Cached || st2.ID != st1.ID {
		t.Fatalf("reordered repeat = %+v, want cache hit on run %s", st2, st1.ID)
	}
	if got := s.tele.RunCacheHits.Value(); got != 1 {
		t.Fatalf("pvcd_run_cache_hits_total = %g, want 1", got)
	}
}

// TestSpecCacheKeyIgnoresSystemSpelling: resolveCells parses systems
// case-insensitively and accepts aliases, and an omitted system list
// selects every system the workload runs on, so every spelling of one
// selection must share one completed-run cache key. Duplicates stay
// significant: they add cells and change the run's status.
func TestSpecCacheKeyIgnoresSystemSpelling(t *testing.T) {
	s, ts := testServer(t, 1)
	for _, pair := range [][2]runSpec{
		{{Workload: "triad", Systems: []string{"aurora"}}, {Workload: "triad", Systems: []string{"Aurora"}}},
		{{Workload: "lats", Systems: []string{"h100"}}, {Workload: "lats", Systems: []string{"jlse-h100"}}},
		{{Workload: "triad", Systems: []string{"DAWN", "aurora"}}, {Workload: "triad", Systems: []string{"Aurora", "dawn"}}},
		{{Workload: "p2p"}, {Workload: "p2p", Systems: []string{"aurora", "dawn"}}},
	} {
		a, b := cacheKeyOf(t, s, pair[0]), cacheKeyOf(t, s, pair[1])
		if a != b {
			t.Errorf("%+v and %+v key differently:\n %q\n %q", pair[0], pair[1], a, b)
		}
	}
	if cacheKeyOf(t, s, runSpec{Systems: []string{"aurora"}}) == cacheKeyOf(t, s, runSpec{Systems: []string{"aurora", "Aurora"}}) {
		t.Error("a duplicated system must not share the single-system key")
	}

	_, first := postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true}`)
	_, second := postJSON(t, ts, `{"workload":"p2p","systems":["Aurora"],"wait":true}`)
	var st1, st2 statusJSON
	if err := json.Unmarshal(first, &st1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.ID != st1.ID {
		t.Fatalf("respelled repeat = %+v, want cache hit on run %s", st2, st1.ID)
	}
	// Omitting the systems selects the same cells as listing them all.
	_, third := postJSON(t, ts, `{"workload":"p2p","wait":true}`)
	_, fourth := postJSON(t, ts, `{"workload":"p2p","systems":["aurora","dawn"],"wait":true}`)
	var st3, st4 statusJSON
	if err := json.Unmarshal(third, &st3); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fourth, &st4); err != nil {
		t.Fatal(err)
	}
	if st3.Cached || !st4.Cached || st4.ID != st3.ID {
		t.Fatalf("implicit %+v then explicit %+v, want a cache hit on run %s", st3, st4, st3.ID)
	}
	if got := s.tele.RunCacheHits.Value(); got != 2 {
		t.Fatalf("pvcd_run_cache_hits_total = %g, want 2", got)
	}
}

func TestHistoryJournalRecordsRunsAndSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	j, err := history.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, 2)
	s.journal = j
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"]}`)
	waitRun(t, s, id)
	// The journal append happens just before the run's done channel
	// closes, so it is visible once the status endpoint says done.

	var page struct {
		Schema  int              `json:"schema_version"`
		Count   int              `json:"count"`
		Records []history.Record `json:"records"`
	}
	getJSON(t, ts, "/v1/history", &page)
	if page.Schema != history.SchemaVersion || page.Count != 1 || len(page.Records) != 1 {
		t.Fatalf("history page = %+v", page)
	}
	rec := page.Records[0]
	if rec.ID != id || rec.Status != "done" || rec.Workload != "p2p" || rec.Cells != 1 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.TraceID == "" {
		t.Fatal("record has no trace_id")
	}
	if len(rec.Sim) == 0 {
		t.Fatal("record carries no simulated FOMs")
	}
	for k := range rec.Sim {
		if !strings.HasPrefix(k, "p2p:") || !strings.Contains(k, "@Aurora") {
			t.Fatalf("sim key %q is not in bench format workload:metric[/scope]@system", k)
		}
	}
	if rec.Wall.RunMS <= 0 {
		t.Fatalf("wall.run_ms = %g, want > 0", rec.Wall.RunMS)
	}
	j.Close()

	// A fresh daemon over the same file serves the old records: the
	// journal outlives the process.
	j2, err := history.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), 1)
	s2.journal = j2
	ts2 := httptest.NewServer(s2.handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { j2.Close() })
	var page2 struct {
		Count   int              `json:"count"`
		Records []history.Record `json:"records"`
	}
	getJSON(t, ts2, "/v1/history", &page2)
	if page2.Count != 1 || page2.Records[0].ID != id {
		t.Fatalf("restarted daemon lost history: %+v", page2)
	}

	// And the file round-trips byte-exactly.
	if n, err := history.Validate(path); err != nil || n != 1 {
		t.Fatalf("Validate = %d, %v", n, err)
	}
}

func TestHistoryDisabledIs404(t *testing.T) {
	_, ts := testServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("history without journal: status %d, want 404", resp.StatusCode)
	}
}

func TestHistoryLimitParam(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	j, err := history.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s, ts := testServer(t, 2)
	s.journal = j
	for _, spec := range []string{
		`{"workload":"p2p","systems":["aurora"]}`,
		`{"workload":"triad","systems":["aurora"]}`,
	} {
		waitRun(t, s, submitRun(t, ts, spec))
	}
	var page struct {
		Count   int              `json:"count"`
		Records []history.Record `json:"records"`
	}
	getJSON(t, ts, "/v1/history?limit=1", &page)
	if page.Count != 1 || len(page.Records) != 1 || page.Records[0].Workload != "triad" {
		t.Fatalf("limit=1 page = %+v, want only the newest record", page)
	}
	resp, err := http.Get(ts.URL + "/v1/history?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus limit: status %d, want 400", resp.StatusCode)
	}
}

func TestSSEKeepaliveAndResume(t *testing.T) {
	s, ts := testServer(t, 2)
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"]}`)
	waitRun(t, s, id)

	// Plain subscription: the stream opens with a keepalive comment.
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.HasPrefix(full, []byte(": keepalive\n\n")) {
		t.Fatalf("stream does not open with a keepalive comment:\n%s", full)
	}
	firstID := -1
	lastID := -1
	sc := bufio.NewScanner(bytes.NewReader(full))
	for sc.Scan() {
		if n, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			v, err := strconv.Atoi(n)
			if err != nil {
				t.Fatalf("bad id line %q", sc.Text())
			}
			if firstID < 0 {
				firstID = v
			}
			lastID = v
		}
	}
	if firstID != 0 {
		t.Fatalf("full replay starts at id %d, want 0", firstID)
	}
	if lastID < 1 {
		t.Fatalf("replay has no terminal event (last id %d)", lastID)
	}

	// Resume: Last-Event-ID replays only what follows.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(lastID-1))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if want := "id: " + strconv.Itoa(lastID) + "\n"; !strings.Contains(string(resumed), want) {
		t.Fatalf("resumed stream misses the final event:\n%s", resumed)
	}
	if strings.Contains(string(resumed), "id: "+strconv.Itoa(lastID-1)+"\n") {
		t.Fatalf("resumed stream replays already-seen events:\n%s", resumed)
	}
	if got := s.tele.SSEResumes.Value(); got != 1 {
		t.Fatalf("pvcd_sse_resumes_total = %g, want 1", got)
	}
	if got := s.tele.SSEKeepalives.Value(); got < 2 {
		t.Fatalf("pvcd_sse_keepalives_total = %g, want >= 2 (one per subscription)", got)
	}
}

// TestSSEResumeBeyondEndOfFinishedRun: a Last-Event-ID at or past the
// final event of a closed stream must end the stream immediately with
// nothing to replay — the regression was an unthrottled keepalive spin
// (wait returned done=false forever once the cursor overshot history).
func TestSSEResumeBeyondEndOfFinishedRun(t *testing.T) {
	s, ts := testServer(t, 1)
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"]}`)
	waitRun(t, s, id)

	for _, last := range []string{"9999", strconv.Itoa(math.MaxInt)} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/runs/"+id+"/events", nil)
		req.Header.Set("Last-Event-ID", last)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Cap the read: a busy-looping server would stream keepalives
		// until the context deadline.
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		cancel()
		if err != nil {
			t.Fatalf("Last-Event-ID %s: stream did not terminate (read %d bytes): %v", last, len(body), err)
		}
		if got := string(body); got != ": keepalive\n\n" {
			t.Fatalf("Last-Event-ID %s: overshoot resume replayed data or spun keepalives:\n%q", last, got)
		}
	}
}

func TestSSEIdleKeepalives(t *testing.T) {
	s, ts := testServer(t, 1)
	s.sseKeepalive = 30 * time.Millisecond
	// A run that finished: subscribe from beyond its history so the
	// stream sits idle... actually a finished run closes immediately, so
	// use a slow path: subscribe to a run while it executes and rely on
	// idle gaps. Simpler and deterministic: subscribe from past the end
	// of a still-open broadcaster.
	s.mu.Lock()
	s.nextID++
	rn := &apiRun{id: "r9999", spec: runSpec{}, bcast: newBroadcaster(),
		stats: nil, total: 0, trace: s.tracer.Start("run r9999"),
		start: time.Now(), status: "running", done: make(chan struct{})}
	s.runs["r9999"] = rn
	s.order = append(s.order, "r9999")
	s.mu.Unlock()

	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/r9999/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		rn.bcast.publish(event{Phase: "run-done", Status: "done"})
		rn.bcast.close()
	}()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Initial keepalive + at least one idle keepalive before run-done.
	if n := bytes.Count(body, []byte(": keepalive\n\n")); n < 2 {
		t.Fatalf("idle stream wrote %d keepalives, want >= 2:\n%s", n, body)
	}
	if !bytes.Contains(body, []byte(`"phase":"run-done"`)) {
		t.Fatalf("stream missed the terminal event:\n%s", body)
	}
}

// TestJournalAndTracingAreSideChannels: the simulated metrics export of
// a run is byte-identical whether the daemon records history and
// traces or not (tracing is always on; the journal flips).
func TestJournalAndTracingAreSideChannels(t *testing.T) {
	export := func(withJournal bool) []byte {
		s, ts := testServer(t, 2)
		if withJournal {
			j, err := history.Open(filepath.Join(t.TempDir(), "history.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			s.journal = j
		}
		id := submitRun(t, ts, `{"workload":"clover-scaling","jobs":2}`)
		rn := waitRun(t, s, id)
		if st := s.statusOf(rn); st.Status != "done" {
			t.Fatalf("run = %s (error %q)", st.Status, st.Error)
		}
		return getBytes(t, ts.URL+"/v1/runs/"+id+"/metrics")
	}
	plain := export(false)
	journaled := export(true)
	if !bytes.Equal(plain, journaled) {
		t.Errorf("metrics export differs with history enabled at byte %d",
			firstDiff(plain, journaled))
	}
}

func TestReqtraceExportIsChromeJSON(t *testing.T) {
	s, ts := testServer(t, 2)
	id := submitRun(t, ts, `{"workload":"p2p","systems":["aurora"]}`)
	waitRun(t, s, id)
	body := getBytes(t, ts.URL+"/v1/reqtrace")
	var file struct {
		TraceEvents []chrometrace.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatalf("reqtrace export is not JSON: %v", err)
	}
	wantSpans := map[string]bool{"queue-wait": false, "run": false}
	runTrace := false
	for _, e := range file.TraceEvents {
		if _, ok := wantSpans[e.Name]; ok {
			wantSpans[e.Name] = true
		}
		if strings.HasPrefix(e.Name, "run r") {
			runTrace = true
		}
	}
	for name, seen := range wantSpans {
		if !seen {
			t.Errorf("reqtrace export has no %q span", name)
		}
	}
	if !runTrace {
		t.Error("reqtrace export has no run-level trace")
	}
	_ = s
}

// TestHTTPDurationHistogram: the latency SLO histogram gains samples
// under the right route and outcome labels, and the page strict-parses.
func TestHTTPDurationHistogram(t *testing.T) {
	s, ts := testServer(t, 2)
	postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true}`)
	postJSON(t, ts, `{"workload":"p2p","systems":["aurora"],"wait":true}`) // cache hit
	postJSON(t, ts, `{"workload":"nope","wait":true}`)                     // client error
	page := getBytes(t, ts.URL+"/metrics")
	fams, err := telemetry.ParseMetrics(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("/metrics does not strict-parse: %v", err)
	}
	fam := fams["pvcsim_http_request_duration_seconds"]
	if fam == nil {
		t.Fatal("latency histogram missing from /metrics")
	}
	wantOutcomes := map[string]bool{"ok": false, "cache-hit": false, "client-error": false}
	for _, smp := range fam.Samples {
		if smp.Labels["route"] == "runs_submit" {
			if _, ok := wantOutcomes[smp.Labels["outcome"]]; ok {
				wantOutcomes[smp.Labels["outcome"]] = true
			}
		}
	}
	for o, seen := range wantOutcomes {
		if !seen {
			t.Errorf("no runs_submit series with outcome %q", o)
		}
	}
	// The histogram code path is shared with Quantile: p99 over the
	// daemon's own samples must be a finite number.
	if q := s.tele.HTTPDuration.With("runs_submit", "ok").Quantile(0.99); q != q || q < 0 {
		t.Fatalf("p99 = %g, want finite non-negative", q)
	}
}
