package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/wallprof"
)

// writeProbeProfile produces a real -profile export: one richly
// simulating workload through an observed runner, built and written the
// same way the shared -profile flag does it.
func writeProbeProfile(t *testing.T, path string) {
	t.Helper()
	w, ok := sweep.DefaultRegistry().Get("clover-scaling")
	if !ok {
		t.Fatal("clover-scaling not registered")
	}
	col := obs.NewCollector()
	r := runner.New(1)
	r.Observe(col)
	cells := []runner.Cell{{System: w.Systems()[0], Workload: w}}
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			t.Fatalf("probe run: %v", res.Err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := prof.Build(col.Report()).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchJSON(fom float64) string {
	return `[{"schema_version": 1, "date": "2026-01-01",
  "sim": {"cloverleaf:grind/cell@Aurora": ` + formatFloat(fom) + `},
  "wall": {"run_ms": 100, "jobs": 1, "cells": 1}}]`
}

func formatFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "old.json", benchJSON(100))
	same := writeFile(t, dir, "same.json", benchJSON(100))
	// The acceptance scenario: a 10% simulated-FOM regression.
	worse := writeFile(t, dir, "worse.json", benchJSON(90))

	var out, errb bytes.Buffer
	if code := run([]string{"diff", base, same}, &out, &errb); code != 0 {
		t.Fatalf("identical inputs: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok: 1 simulated metric(s) within tolerance") {
		t.Fatalf("missing ok line:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"diff", base, worse}, &out, &errb); code != 1 {
		t.Fatalf("10%% FOM regression: exit %d, want 1\nstdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL cloverleaf:grind/cell@Aurora: 100 -> 90 (-10.00%)") {
		t.Fatalf("missing FAIL line:\n%s", out.String())
	}

	// A wide enough tolerance admits the same drift.
	out.Reset()
	if code := run([]string{"diff", "-rel-tol", "0.2", base, worse}, &out, &errb); code != 0 {
		t.Fatalf("regression within -rel-tol: exit %d\n%s", code, out.String())
	}

	// Per-metric override works too.
	out.Reset()
	if code := run([]string{"diff",
		"-metric-tol", "cloverleaf:grind/cell@Aurora=0.2", base, worse}, &out, &errb); code != 0 {
		t.Fatalf("regression within -metric-tol: exit %d\n%s", code, out.String())
	}
}

func TestDiffRefusesMixedSources(t *testing.T) {
	dir := t.TempDir()
	bench := writeFile(t, dir, "bench.json", benchJSON(100))
	profile := writeFile(t, dir, "profile.json",
		`{"schema_version": 1, "cells": []}`)
	var out, errb bytes.Buffer
	if code := run([]string{"diff", bench, profile}, &out, &errb); code != 2 {
		t.Fatalf("mixed sources: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "cannot compare") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"report"},
		{"diff", "only-one.json"},
		{"bench", "stray-arg"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestReportAndFlameFromProbe(t *testing.T) {
	// End-to-end over a real simulation: generate a profile the same way
	// the -profile flag does, then render it both ways.
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	writeProbeProfile(t, path)

	var out, errb bytes.Buffer
	if code := run([]string{"report", path}, &out, &errb); code != 0 {
		t.Fatalf("report: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "BOUND") || !strings.Contains(out.String(), "%") {
		t.Fatalf("report output:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"flame", path}, &out, &errb); code != 0 {
		t.Fatalf("flame: exit %d, stderr:\n%s", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		// Folded format: "cell;track;cat;name;bound <integer>" — the
		// sample count follows the last space (cell names contain spaces).
		cut := strings.LastIndex(line, " ")
		if cut < 0 {
			t.Fatalf("malformed folded line %q", line)
		}
		frame, count := line[:cut], line[cut+1:]
		if strings.Count(frame, ";") != 4 {
			t.Fatalf("malformed folded line %q", line)
		}
		for _, r := range count {
			if r < '0' || r > '9' {
				t.Fatalf("non-integer sample count in %q", line)
			}
		}
	}

	// report/flame refuse non-profile exports.
	bench := writeFile(t, dir, "bench.json", benchJSON(1))
	if code := run([]string{"report", bench}, &out, &errb); code != 2 {
		t.Fatalf("report on a bench file: exit %d, want 2", code)
	}
}

// writeWallProfile produces a real -wallprof export: one workload
// through a wall-profiled runner, written the way the -wallprof flag
// does it.
func writeWallProfile(t *testing.T, path string) {
	t.Helper()
	// clover-scaling genuinely drives the cell's event engine (the FOM
	// workloads are analytic), so the export carries engine stats.
	w, ok := sweep.DefaultRegistry().Get("clover-scaling")
	if !ok {
		t.Fatal("clover-scaling not registered")
	}
	wc := wallprof.New()
	r := runner.New(1)
	r.ProfileWall(wc)
	cells := []runner.Cell{{System: w.Systems()[0], Workload: w}}
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			t.Fatalf("wall probe run: %v", res.Err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := wc.Report().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestWallReportFlameAndDiff(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "wall-a.json")
	b := filepath.Join(dir, "wall-b.json")
	writeWallProfile(t, a)
	writeWallProfile(t, b)

	var out, errb bytes.Buffer
	if code := run([]string{"wall", "report", a}, &out, &errb); code != 0 {
		t.Fatalf("wall report: exit %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"Wall-clock self-profile", "engine: 1 run(s)", "LANE", "BUSY_MS", "UTIL"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("wall report missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"wall", "flame", a}, &out, &errb); code != 0 {
		t.Fatalf("wall flame: exit %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), ";simulate;lane 0;busy ") {
		t.Fatalf("wall flame missing lane stack:\n%s", out.String())
	}

	// Wall profiles are not diffable: the refusal names the benchmark
	// that does measure the simulator's speed, and `wall` has no diff view.
	out.Reset()
	errb.Reset()
	if code := run([]string{"diff", a, b}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "perfbench") {
		t.Fatalf("diff of two wall profiles: exit %d, want 2 naming perfbench\nstderr:\n%s", code, errb.String())
	}
	if code := run([]string{"wall", "diff", a, b}, &out, &errb); code != 2 {
		t.Fatalf("wall diff: exit %d, want 2", code)
	}

	// wall report refuses other export kinds, naming what it got.
	bench := writeFile(t, dir, "bench.json", benchJSON(1))
	out.Reset()
	errb.Reset()
	if code := run([]string{"wall", "report", bench}, &out, &errb); code != 2 {
		t.Fatalf("wall report on a bench file: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "is a bench export") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}

func TestBenchAppendsAndDiffsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run over the FOM set")
	}
	dir := t.TempDir()
	out1 := filepath.Join(dir, "a.json")
	out2 := filepath.Join(dir, "b.json")
	var out, errb bytes.Buffer
	if code := run([]string{"bench", "-date", "2026-01-01", "-out", out1}, &out, &errb); code != 0 {
		t.Fatalf("bench: exit %d, stderr:\n%s", code, errb.String())
	}
	if code := run([]string{"bench", "-date", "2026-01-02", "-jobs", "2", "-out", out2}, &out, &errb); code != 0 {
		t.Fatalf("bench jobs=2: exit %d, stderr:\n%s", code, errb.String())
	}
	// Two separate runs: the simulated figures must diff clean at exact
	// tolerance whatever the parallelism.
	out.Reset()
	errb.Reset()
	if code := run([]string{"diff", out1, out2}, &out, &errb); code != 0 {
		t.Fatalf("bench runs drifted: exit %d\n%s%s", code, out.String(), errb.String())
	}

	// Appending to the same file accumulates records.
	if code := run([]string{"bench", "-date", "2026-01-03", "-label", "again", "-out", out1}, &out, &errb); code != 0 {
		t.Fatalf("bench append: exit %d, stderr:\n%s", code, errb.String())
	}
	recs, err := prof.ReadRecords(out1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Label != "again" || recs[1].Date != "2026-01-03" {
		t.Fatalf("records after append: %+v", recs)
	}
	if recs[0].Schema != prof.BenchSchemaVersion || len(recs[0].Sim) == 0 {
		t.Fatalf("bench record is empty: %+v", recs[0])
	}
	data, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"wall"`) {
		t.Fatalf("bench record carries a wall object:\n%s", data)
	}
}

// TestWallReportRendersLaneEraProfile keeps old wall reports readable:
// one written by the former event-lane engine carries round, barrier,
// stall and mailbox fields, which load and are ignored.
func TestWallReportRendersLaneEraProfile(t *testing.T) {
	path := writeFile(t, t.TempDir(), "wall.json", `{"wall_schema_version": 1, "export_ms": 2,
  "cells": [{"workload": "w", "system": "aurora", "build_ms": 1, "simulate_ms": 3,
             "engine_runs": 1, "engine_run_ms": 3, "workers": 2, "rounds": 4,
             "barriers": 4, "barrier_ms": 0.5, "mean_active_lanes": 1.5,
             "lanes": [{"lane": 0, "busy_ms": 2, "stall_ms": 0.1, "idle_ms": 0.9,
                        "utilization": 0.66, "stall_frac": 0.03, "bursts": 4,
                        "events": 9, "msgs_emitted": 1,
                        "event_alloc_fresh": 9, "event_alloc_reused": 0, "heap_shrinks": 0}],
             "mailbox_depth": {"bounds": [], "counts": [0], "count": 0, "sum": 0, "max": 0},
             "mailbox_latency_ns": {"bounds": [], "counts": [0], "count": 0, "sum": 0, "max": 0}}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{"wall", "report", path}, &out, &errb); code != 0 {
		t.Fatalf("wall report: exit %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"w @ aurora", "engine: 1 run(s), 3 ms wall", "66.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("wall report missing %q:\n%s", want, out.String())
		}
	}

	// A wall report from another schema is refused, not misread.
	future := writeFile(t, t.TempDir(), "future.json", `{"wall_schema_version": 99, "cells": []}`)
	errb.Reset()
	if code := run([]string{"wall", "report", future}, &out, &errb); code != 2 {
		t.Fatalf("foreign wall schema: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "wall profile schema 99") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}

// TestLogFlagsRejected: pvcprof logs nothing, so every subcommand
// refuses -log-format/-log-level even on inputs it would render.
func TestLogFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	profile := filepath.Join(dir, "profile.json")
	writeProbeProfile(t, profile)
	wall := filepath.Join(dir, "wall.json")
	writeWallProfile(t, wall)
	bench := writeFile(t, dir, "bench.json", benchJSON(100))
	journal := filepath.Join(dir, "history.jsonl")
	writeJournal(t, journal, historyRec("r0001", "clover-scaling", 10, 100))
	for _, args := range [][]string{
		{"report", "-log-format", "json", profile},
		{"flame", "-log-format", "json", profile},
		{"wall", "report", "-log-format", "json", wall},
		{"diff", "-log-level", "debug", bench, bench},
		{"history", "-log-format", "json", "-baseline", "", journal},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("pvcprof %q: exit %d, stdout %q; want exit 2 and no output", args, code, out.String())
		}
	}
}
