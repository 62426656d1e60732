package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"pvcsim/internal/history"
	"pvcsim/internal/telemetry"
)

// TestRunWallFactsReachEverySink pins where one run's wall-clock facts
// land: SSE, /metrics, the history journal and the run's reqtrace. Two
// cells of one key on one worker: the first computes, the second is
// served from the runner memo. clover-scaling drives the runner's event
// engine (p2p is analytic), so engine busy time must be measured.
func TestRunWallFactsReachEverySink(t *testing.T) {
	j, err := history.Open(filepath.Join(t.TempDir(), "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s, ts := testServer(t, 1)
	s.journal = j
	resp, body := postJSON(t, ts, `{"workload":"clover-scaling","systems":["aurora","aurora"],"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" {
		t.Fatalf("status = %s (%s), want done", st.Status, st.Error)
	}

	// SSE: the lifecycle in order, the memo-served cell announced as a
	// cache hit before its cached finish.
	events, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	var phases []string
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		p := e.Phase
		if e.Cached {
			p += "(cached)"
		}
		phases = append(phases, p)
	}
	want := "queued,queued,start,finish,start,cache-hit,finish(cached),run-done"
	if got := strings.Join(phases, ","); got != want {
		t.Fatalf("SSE phases:\n got %s\nwant %s", got, want)
	}

	// /metrics: one memo hit, one miss, one sample per runner phase,
	// and nonzero engine busy time.
	fams, err := telemetry.ParseMetrics(bytes.NewReader(getBytes(t, ts.URL+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"pvcsim_memo_hits_total": 1, "pvcsim_memo_misses_total": 1} {
		if v, ok := sampleValue(fams, name, nil); !ok || v != want {
			t.Errorf("%s = %v (present=%v), want %g", name, v, ok, want)
		}
	}
	phaseSumMS := map[string]float64{}
	for _, phase := range []string{"build", "simulate", "cache-wait", "export"} {
		lbl := map[string]string{"phase": phase}
		if v, ok := sampleValue(fams, "pvcsim_runner_phase_seconds_count", lbl); !ok || v != 1 {
			t.Errorf("runner_phase_seconds_count{%s} = %v (present=%v), want 1", phase, v, ok)
		}
		sum, _ := sampleValue(fams, "pvcsim_runner_phase_seconds_sum", lbl)
		phaseSumMS[phase] = sum * 1e3
	}
	if v, ok := sampleValue(fams, "pvcsim_engine_lane_busy_seconds_total", nil); !ok || v <= 0 {
		t.Errorf("pvcsim_engine_lane_busy_seconds_total = %v (present=%v), want > 0", v, ok)
	}

	// Journal: the same phase totals the histograms carry.
	recs := j.Records()
	if len(recs) != 1 {
		t.Fatalf("journal holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.CacheHits != 1 {
		t.Errorf("journal cache_hits = %d, want 1", rec.CacheHits)
	}
	for phase, got := range map[string]float64{
		"build": rec.Wall.BuildMS, "simulate": rec.Wall.SimulateMS, "cache-wait": rec.Wall.CacheWaitMS,
	} {
		want := phaseSumMS[phase]
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
			t.Errorf("journal %s = %.17g ms, phase histogram sum = %.17g ms", phase, got, want)
		}
	}

	// Reqtrace: one computed run span, one memo lookup span.
	s.mu.Lock()
	rn := s.runs[st.ID]
	s.mu.Unlock()
	spans := map[string]int{}
	for _, sp := range rn.trace.Spans() {
		spans[sp.Name]++
	}
	if spans["run"] != 1 || spans["cache-lookup"] != 1 {
		t.Errorf("run trace spans = %v, want one run and one cache-lookup", spans)
	}
}
