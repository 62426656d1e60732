package prof

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/hw"
	"pvcsim/internal/obs"
)

func TestBoundTags(t *testing.T) {
	if got := BoundCompute(hw.FP64); got != "compute.fp64" {
		t.Fatalf("BoundCompute(fp64) = %q", got)
	}
	if got := BoundCache("L2"); got != "cache.l2" {
		t.Fatalf("BoundCache(L2) = %q", got)
	}
	for _, tag := range []string{
		BoundHBM, BoundPCIe, BoundFabricLocal, BoundFabricRemote,
		BoundFabricXPlane, BoundFabricNode, BoundPower, BoundLaunch,
		BoundCompute(hw.BF16), BoundCache("LLC"),
	} {
		if !KnownBound(tag) {
			t.Errorf("KnownBound(%q) = false", tag)
		}
	}
	for _, tag := range []string{"", "hbm2", "compute", "fabric"} {
		if KnownBound(tag) {
			t.Errorf("KnownBound(%q) = true", tag)
		}
	}
}

// report builds an obs.RunReport from recorded spans, the way the
// runner's collector would.
func report(t *testing.T, cells map[obs.Key][]obs.Span) *obs.RunReport {
	t.Helper()
	col := obs.NewCollector()
	for k, spans := range cells {
		tr := col.Cell(k)
		for _, s := range spans {
			tr.Span(s)
		}
		col.Finish(k, time.Millisecond, nil)
	}
	return col.Report()
}

func TestBuildAttributesAndSkipsCovered(t *testing.T) {
	k := obs.Key{Workload: "w", System: "aurora"}
	analytic := obs.Key{Workload: "analytic", System: "dawn"}
	rep := report(t, map[obs.Key][]obs.Span{
		k: {
			{Name: "kern", Cat: "kernel", GPU: 0, Stack: 0, Start: 0, End: 3, Bound: "compute.fp64"},
			{Name: "h2d", Cat: "h2d", GPU: 0, Stack: 0, Start: 3, End: 4, Bound: BoundPCIe},
			// A fabric flow covered by the blocking memcpy above: Bound ""
			// means "already billed", so it must not contribute.
			{Name: "flow", Cat: "flow", GPU: -1, Stack: -1, Start: 3, End: 4},
		},
		// Analytic workloads record no attributed spans at all; their
		// cells are omitted from the profile entirely.
		analytic: {{Name: "eval", Cat: "model", GPU: 0, Stack: 0, Start: 0, End: 1}},
	})
	p := Build(rep)
	if len(p.Cells) != 1 {
		t.Fatalf("cells = %d, want 1 (analytic cell must be omitted)", len(p.Cells))
	}
	c := p.Cells[0]
	if c.Workload != "w" || c.AttributedS != 4 || c.SimEndS != 4 {
		t.Fatalf("cell = %+v", c)
	}
	if len(c.Residency) != 2 {
		t.Fatalf("residency = %+v", c.Residency)
	}
	sum := 0.0
	for _, sh := range c.Residency {
		sum += sh.Fraction
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("residency fractions sum to %v, want 1", sum)
	}
	if c.Residency[0].Bound != "compute.fp64" || c.Residency[0].Seconds != 3 ||
		c.Residency[1].Bound != BoundPCIe || c.Residency[1].Seconds != 1 {
		t.Fatalf("residency = %+v", c.Residency)
	}
	wantFrames := []Frame{
		{Stack: "gpu0.0;h2d;h2d;pcie", Seconds: 1},
		{Stack: "gpu0.0;kernel;kern;compute.fp64", Seconds: 3},
	}
	if len(c.Frames) != len(wantFrames) {
		t.Fatalf("frames = %+v", c.Frames)
	}
	for i, f := range c.Frames {
		if f != wantFrames[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, f, wantFrames[i])
		}
	}
}

func TestWriteFlameGolden(t *testing.T) {
	p := &Profile{SchemaVersion: SchemaVersion, Cells: []CellProfile{{
		Workload: "w", System: "aurora", Params: "n=1",
		Frames: []Frame{
			{Stack: "gpu0.0;kernel;k;hbm", Seconds: 1.5e-6},
			{Stack: "fabric;flow;d2d:0.0->1.0;fabric.remote", Seconds: 0.25e-9},
		},
	}}}
	var buf bytes.Buffer
	if err := p.WriteFlame(&buf); err != nil {
		t.Fatal(err)
	}
	want := "w @ aurora [n=1];gpu0.0;kernel;k;hbm 1500\n" +
		"w @ aurora [n=1];fabric;flow;d2d:0.0->1.0;fabric.remote 1\n"
	if got := buf.String(); got != want {
		t.Fatalf("flame output:\n got: %q\nwant: %q", got, want)
	}
}

func TestWriteReport(t *testing.T) {
	rep := report(t, map[obs.Key][]obs.Span{
		{Workload: "w", System: "aurora"}: {
			{Name: "k", Cat: "kernel", GPU: 0, Stack: 0, Start: 0, End: 1, Bound: BoundHBM},
			{Name: "p", Cat: "h2d", GPU: 0, Stack: 0, Start: 1, End: 4, Bound: BoundPCIe},
		},
	})
	var buf bytes.Buffer
	if err := Build(rep).WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CELL", "w @ aurora", "hbm", "25.0%", "pcie", "75.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestParseMetricsDetectsFormats(t *testing.T) {
	rep := report(t, map[obs.Key][]obs.Span{
		{Workload: "w", System: "aurora"}: {
			{Name: "k", Cat: "kernel", GPU: 0, Stack: 0, Start: 0, End: 2, Bound: BoundHBM},
		},
	})

	var profileJSON bytes.Buffer
	if err := Build(rep).WriteJSON(&profileJSON); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(profileJSON.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "profile" {
		t.Fatalf("Source = %q, want profile", m.Source)
	}
	if m.Sim["w @ aurora residency.hbm"] != 1 || m.Sim["w @ aurora attributed_s"] != 2 {
		t.Fatalf("profile metrics = %+v", m.Sim)
	}

	var metricsJSON bytes.Buffer
	if err := rep.WriteMetrics(&metricsJSON); err != nil {
		t.Fatal(err)
	}
	m, err = ParseMetrics(metricsJSON.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "metrics" {
		t.Fatalf("Source = %q, want metrics", m.Source)
	}
	if m.Sim["w @ aurora events"] != 1 || m.Sim["w @ aurora sim_end_s"] != 2 {
		t.Fatalf("run-report metrics = %+v", m.Sim)
	}

	bench := []byte(`[
  {"schema_version": 1, "date": "2026-01-01", "sim": {"fom@Aurora": 10}, "wall": {"run_ms": 5, "jobs": 1, "cells": 1}},
  {"schema_version": 1, "date": "2026-01-02", "sim": {"fom@Aurora": 12}, "wall": {"run_ms": 7, "jobs": 1, "cells": 1}}
]`)
	m, err = ParseMetrics(bench)
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "bench" {
		t.Fatalf("Source = %q, want bench", m.Source)
	}
	// The LAST record is the one compared.
	if m.Sim["fom@Aurora"] != 12 || m.Wall["wall.run_ms"] != 7 {
		t.Fatalf("bench metrics = sim %+v wall %+v", m.Sim, m.Wall)
	}

	// A wall report written by the former event-lane engine: its round,
	// barrier, stall and mailbox fields must still parse (and are
	// ignored).
	wall := []byte(`{"wall_schema_version": 1, "export_ms": 2,
  "cells": [{"workload": "w", "system": "aurora", "build_ms": 1, "simulate_ms": 3,
             "engine_runs": 1, "engine_run_ms": 3, "workers": 2, "rounds": 4,
             "barriers": 4, "barrier_ms": 0.5, "mean_active_lanes": 1.5,
             "lanes": [{"lane": 0, "busy_ms": 2, "stall_ms": 0.1, "idle_ms": 0.9,
                        "utilization": 0.66, "stall_frac": 0.03, "bursts": 4,
                        "events": 9, "msgs_emitted": 1,
                        "event_alloc_fresh": 9, "event_alloc_reused": 0, "heap_shrinks": 0}],
             "mailbox_depth": {"bounds": [], "counts": [0], "count": 0, "sum": 0, "max": 0},
             "mailbox_latency_ns": {"bounds": [], "counts": [0], "count": 0, "sum": 0, "max": 0}}]}`)
	m, err = ParseMetrics(wall)
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "wall" {
		t.Fatalf("Source = %q, want wall", m.Source)
	}
	if len(m.Sim) != 0 {
		t.Fatalf("wall profile leaked into simulated metrics: %+v", m.Sim)
	}
	if m.Wall["w @ aurora wall.lane0.utilization"] != 0.66 || m.Wall["w @ aurora wall.lane0.busy_ms"] != 2 {
		t.Fatalf("wall metrics = %+v", m.Wall)
	}

	for _, bad := range []string{"[]", "{}", `{"schema_version": 99, "cells": []}`,
		`{"wall_schema_version": 99, "cells": []}`, "nonsense"} {
		if _, err := ParseMetrics([]byte(bad)); err == nil {
			t.Errorf("ParseMetrics(%q) accepted a bad export", bad)
		}
	}
}

func TestDiffReportsMissingWallStats(t *testing.T) {
	old := &Metrics{Source: "bench",
		Sim:  map[string]float64{"fom@Aurora": 10},
		Wall: map[string]float64{"wall.run_ms": 5, "wall.lane_busy_ms": 4}}
	new := &Metrics{Source: "bench",
		Sim:  map[string]float64{"fom@Aurora": 10},
		Wall: map[string]float64{"wall.run_ms": 5}}
	res := Diff(old, new, DiffOptions{WallRelTol: 0.25})
	if res.Failed() {
		t.Fatalf("missing wall stat failed the diff: %+v", res)
	}
	if len(res.WallMissing) != 1 || res.WallMissing[0] != "wall.lane_busy_ms" {
		t.Fatalf("WallMissing = %v, want [wall.lane_busy_ms]", res.WallMissing)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("absent stat compared as zero: %+v", res.Warnings)
	}
}

func benchMetrics(fom, wall float64) *Metrics {
	return &Metrics{
		Source: "bench",
		Sim:    map[string]float64{"fom@Aurora": fom},
		Wall:   map[string]float64{"wall.run_ms": wall},
	}
}

func TestDiffExactByDefault(t *testing.T) {
	old := benchMetrics(100, 5)
	if res := Diff(old, benchMetrics(100, 5), DiffOptions{}); res.Failed() {
		t.Fatalf("identical inputs failed: %+v", res)
	}
	// A 10% simulated regression must fail under the default exact
	// tolerance...
	res := Diff(old, benchMetrics(90, 5), DiffOptions{})
	if !res.Failed() || len(res.Regressions) != 1 {
		t.Fatalf("10%% regression not caught: %+v", res)
	}
	// ...and a too-good 10% improvement is drift too.
	if res := Diff(old, benchMetrics(110, 5), DiffOptions{}); !res.Failed() {
		t.Fatalf("10%% improvement not flagged as drift: %+v", res)
	}
	// A wide tolerance admits it.
	if res := Diff(old, benchMetrics(90, 5), DiffOptions{RelTol: 0.2}); res.Failed() {
		t.Fatalf("regression within tolerance still failed: %+v", res)
	}
}

func TestDiffWallIsWarnOnly(t *testing.T) {
	old := benchMetrics(100, 5)
	double := benchMetrics(100, 10)
	res := Diff(old, double, DiffOptions{WallRelTol: 0.25})
	if res.Failed() || len(res.Warnings) != 1 {
		t.Fatalf("wall drift should warn, not fail: %+v", res)
	}
	res = Diff(old, double, DiffOptions{WallRelTol: 0.25, FailOnWall: true})
	if !res.Failed() {
		t.Fatalf("FailOnWall should promote wall drift to a regression: %+v", res)
	}
	// Within the wall tolerance: silent.
	res = Diff(old, benchMetrics(100, 6), DiffOptions{WallRelTol: 0.25})
	if res.Failed() || len(res.Warnings) != 0 {
		t.Fatalf("wall within tolerance should be silent: %+v", res)
	}
}

func TestDiffMissingAndAddedAndOverrides(t *testing.T) {
	old := &Metrics{Source: "bench", Sim: map[string]float64{"a": 1, "b": 2}, Wall: map[string]float64{}}
	new := &Metrics{Source: "bench", Sim: map[string]float64{"a": 1.05, "c": 3}, Wall: map[string]float64{}}
	res := Diff(old, new, DiffOptions{PerMetric: map[string]float64{"a": 0.1}})
	if len(res.Missing) != 1 || res.Missing[0] != "b" {
		t.Fatalf("Missing = %v, want [b]", res.Missing)
	}
	if !res.Failed() {
		t.Fatal("a missing simulated metric must fail the diff")
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("per-metric override ignored: %+v", res.Regressions)
	}
	if len(res.Added) != 1 || res.Added[0] != "c" {
		t.Fatalf("Added = %v, want [c]", res.Added)
	}
}

func TestDiffNotesSchemaAndToolchainAsymmetry(t *testing.T) {
	// A v1 baseline (no go_version) gating a v2 build: the comparison
	// must still run on the shared metrics, and the provenance
	// asymmetry must surface as notes, never as silent zero-compares.
	old := benchMetrics(100, 5)
	old.BenchSchema = 1
	new := benchMetrics(100, 5)
	new.BenchSchema = BenchSchemaVersion
	new.GoVersion = "go1.24.0"
	res := Diff(old, new, DiffOptions{})
	if res.Failed() {
		t.Fatalf("cross-schema diff of identical metrics failed: %+v", res)
	}
	if len(res.Notes) != 2 {
		t.Fatalf("Notes = %v, want schema + toolchain notes", res.Notes)
	}
	if !strings.Contains(res.Notes[0], "schema_version differs: old 1 vs new 2") {
		t.Errorf("schema note = %q", res.Notes[0])
	}
	if !strings.Contains(res.Notes[1], "old (unrecorded) vs new go1.24.0") {
		t.Errorf("toolchain note = %q", res.Notes[1])
	}

	// Same schema, same toolchain: no notes.
	res = Diff(new, new, DiffOptions{})
	if len(res.Notes) != 0 {
		t.Fatalf("symmetric provenance produced notes: %v", res.Notes)
	}

	// Non-bench sources never get the schema note even when the zero
	// values differ from a bench record's.
	prof := &Metrics{Source: "profile", Sim: map[string]float64{"a": 1}, Wall: map[string]float64{}}
	res = Diff(prof, prof, DiffOptions{})
	if len(res.Notes) != 0 {
		t.Fatalf("profile diff produced provenance notes: %v", res.Notes)
	}
}

func TestBenchRecordCarriesGoVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	rec := Record{Schema: BenchSchemaVersion, Date: "2026-08-08", GoVersion: "go1.24.0",
		Sim: map[string]float64{"fom@Aurora": 10}, Wall: WallStats{RunMS: 5, Jobs: 1, Cells: 1}}
	if err := AppendRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Schema != 2 || recs[0].GoVersion != "go1.24.0" {
		t.Fatalf("record = %+v", recs[0])
	}
	m := flattenBench(recs[0])
	if m.BenchSchema != 2 || m.GoVersion != "go1.24.0" {
		t.Fatalf("flattenBench lost provenance: %+v", m)
	}
}

func TestBenchRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	recs, err := ReadRecords(path)
	if err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v, want empty history", recs, err)
	}
	r1 := Record{Schema: SchemaVersion, Date: "2026-01-01",
		Sim: map[string]float64{"fom@Aurora": 10}, Wall: WallStats{RunMS: 5, Jobs: 1, Cells: 1}}
	r2 := Record{Schema: SchemaVersion, Date: "2026-01-02", Label: "tuned",
		Sim: map[string]float64{"fom@Aurora": 10}, Wall: WallStats{RunMS: 4, Jobs: 2, Cells: 1}}
	if err := AppendRecord(path, r1); err != nil {
		t.Fatal(err)
	}
	if err := AppendRecord(path, r2); err != nil {
		t.Fatal(err)
	}
	recs, err = ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Date != "2026-01-01" || recs[1].Label != "tuned" {
		t.Fatalf("records = %+v", recs)
	}
}
