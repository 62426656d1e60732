// Command pvcprof inspects and guards the simulator's bound-attribution
// profiles: it renders per-cell residency tables and folded-stack
// flamegraphs from a -profile export, compares two exports with
// per-metric thresholds, and maintains the repo's simulated FOM
// trajectory.
//
// Usage:
//
//	pvcprof report profile.json            residency tables (human)
//	pvcprof flame profile.json             folded stacks (flamegraph.pl input)
//	pvcprof diff [flags] old.json new.json compare two exports
//	pvcprof bench [flags]                  run the bench set, append a record
//	pvcprof wall report wall.json          engine and runner-phase tables
//	pvcprof wall flame wall.json           wall-time folded stacks
//	pvcprof history [flags] history.jsonl  pvcd run-history trends + regression flags
//
// diff accepts a -profile file, a -metrics file, or a bench record
// array (the last record is compared), and exits 1 when a simulated
// metric drifted beyond its threshold. Simulated figures are
// deterministic, so the default threshold is exact equality:
//
//	pvcprof diff -rel-tol 0.01 -metric-tol 'cloverleaf:CloverLeaf/Full Node@Dawn=0.05' old.json new.json
//
// A -wallprof file is refused with exit 2: the simulator's speed is
// measured by perfbench (bash perfbench/run.sh), not diffed here.
//
// wall inspects the simulator's wall-clock self-profile (a -wallprof
// export): where host time went — engine run time, event-struct churn,
// and runner phases.
//
// bench runs the six Table V/VI figure-of-merit workloads through the
// parallel runner, records their simulated FOMs, and appends the
// record to BENCH_<date>.json (override with -out).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/wallprof"
	"pvcsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "pvcprof: usage: pvcprof report|flame|diff|bench|wall|history [flags] [files]")
		return 2
	}
	switch args[0] {
	case "report":
		return runRender(args[1:], stdout, stderr, "report", (*prof.Profile).WriteReport)
	case "flame":
		return runRender(args[1:], stdout, stderr, "flame", (*prof.Profile).WriteFlame)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "bench":
		return runBench(args[1:], stdout, stderr)
	case "wall":
		return runWall(args[1:], stdout, stderr)
	case "history":
		return runHistory(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "pvcprof: unknown subcommand %q (want report, flame, diff, bench, wall, or history)\n", args[0])
		return 2
	}
}

// runWall dispatches the wall-clock self-profile views.
func runWall(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "pvcprof wall: usage: pvcprof wall report|flame [flags] wall.json")
		return 2
	}
	switch args[0] {
	case "report":
		return runWallRender(args[1:], stdout, stderr, "report", (*wallprof.Report).WriteReport)
	case "flame":
		return runWallRender(args[1:], stdout, stderr, "flame", (*wallprof.Report).WriteFlame)
	default:
		fmt.Fprintf(stderr, "pvcprof wall: unknown subcommand %q (want report or flame)\n", args[0])
		return 2
	}
}

// loadWall reads a -wallprof export. prof.ParseMetrics refuses wall
// profiles, so the format check lives here; any other export is named
// by the kind ParseMetrics detects.
func loadWall(path string) (*wallprof.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		WallSchema *int `json:"wall_schema_version"`
	}
	if json.Unmarshal(data, &probe) != nil || probe.WallSchema == nil {
		m, err := prof.ParseMetrics(data)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s is a %s export; wall report/flame need a -wallprof file", path, m.Source)
	}
	if *probe.WallSchema != wallprof.WallSchemaVersion {
		return nil, fmt.Errorf("%s: wall profile schema %d, this build understands %d",
			path, *probe.WallSchema, wallprof.WallSchemaVersion)
	}
	var r wallprof.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: parsing wall profile: %w", path, err)
	}
	return &r, nil
}

// runWallRender is the shared wall report/flame path.
func runWallRender(args []string, stdout, stderr io.Writer, name string,
	render func(*wallprof.Report, io.Writer) error) int {
	fs := flag.NewFlagSet("pvcprof wall "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "pvcprof wall %s: want exactly one wall.json argument\n", name)
		return 2
	}
	r, err := loadWall(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "pvcprof wall %s: %v\n", name, err)
		return 2
	}
	if err := render(r, stdout); err != nil {
		fmt.Fprintf(stderr, "pvcprof wall %s: %v\n", name, err)
		return 2
	}
	return 0
}

// loadProfile reads a -profile export.
func loadProfile(path string) (*prof.Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := prof.ParseMetrics(data)
	if err != nil {
		return nil, err
	}
	if m.Source != "profile" {
		return nil, fmt.Errorf("%s is a %s export; report/flame need a -profile file", path, m.Source)
	}
	// Re-decode as a profile now that the shape is confirmed.
	var p prof.Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// runRender is the shared report/flame path: load one profile, render.
func runRender(args []string, stdout, stderr io.Writer, name string,
	render func(*prof.Profile, io.Writer) error) int {
	fs := flag.NewFlagSet("pvcprof "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "pvcprof %s: want exactly one profile.json argument\n", name)
		return 2
	}
	p, err := loadProfile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "pvcprof %s: %v\n", name, err)
		return 2
	}
	if err := render(p, stdout); err != nil {
		fmt.Fprintf(stderr, "pvcprof %s: %v\n", name, err)
		return 2
	}
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcprof diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	relTol := fs.Float64("rel-tol", 0,
		"relative tolerance for simulated metrics (0 = exact: any drift fails)")
	perMetric := map[string]float64{}
	fs.Func("metric-tol", "per-metric override, `name=reltol` (repeatable)", func(v string) error {
		name, val, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want name=reltol, got %q", v)
		}
		tol, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		perMetric[name] = tol
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "pvcprof diff: want exactly two arguments: old.json new.json")
		return 2
	}
	load := func(path string) (*prof.Metrics, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return prof.ParseMetrics(data)
	}
	oldM, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "pvcprof diff: %v\n", err)
		return 2
	}
	newM, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "pvcprof diff: %v\n", err)
		return 2
	}
	if oldM.Source != newM.Source {
		fmt.Fprintf(stderr, "pvcprof diff: cannot compare a %s export against a %s export\n",
			oldM.Source, newM.Source)
		return 2
	}
	res := prof.Diff(oldM, newM, prof.DiffOptions{RelTol: *relTol, PerMetric: perMetric})
	for _, m := range res.Missing {
		fmt.Fprintf(stdout, "FAIL %s: present in old, missing in new\n", m)
	}
	for _, l := range res.Regressions {
		fmt.Fprintf(stdout, "FAIL %s\n", l)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	for _, m := range res.Added {
		fmt.Fprintf(stdout, "note %s: new metric, no baseline\n", m)
	}
	if res.Failed() {
		fmt.Fprintf(stderr, "pvcprof diff: %d regression(s)\n", len(res.Regressions)+len(res.Missing))
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d simulated metric(s) within tolerance\n", len(oldM.Sim))
	return 0
}

// benchWorkloads is the bench set: the six Table V/VI figure-of-merit
// workloads, the simulated numbers the paper's claims rest on.
var benchWorkloads = []string{
	"cloverleaf", "hacc", "minibude", "minigamess", "miniqmc", "openmc",
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvcprof bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobs := fs.Int("jobs", 1, "parallel simulation workers; 0 = all CPUs")
	label := fs.String("label", "", "free-form label stored in the record (e.g. a commit hash)")
	date := fs.String("date", "", "record date as YYYY-MM-DD (default: today)")
	out := fs.String("out", "", "bench file to append to (default: BENCH_<date>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "pvcprof bench: takes no positional arguments")
		return 2
	}
	if *date == "" {
		*date = time.Now().Format("2006-01-02")
	}
	if *out == "" {
		*out = "BENCH_" + *date + ".json"
	}

	reg := sweep.DefaultRegistry()
	r := runner.New(*jobs)
	var cells []runner.Cell
	for _, name := range benchWorkloads {
		w, ok := reg.Get(name)
		if !ok {
			fmt.Fprintf(stderr, "pvcprof bench: workload %q not registered\n", name)
			return 2
		}
		for _, sys := range w.Systems() {
			cells = append(cells, runner.Cell{System: sys, Workload: w})
		}
	}

	results := r.Run(context.Background(), cells)
	rec := prof.Record{
		Schema:    prof.BenchSchemaVersion,
		Date:      *date,
		Label:     *label,
		GoVersion: runtime.Version(),
		Sim:       map[string]float64{},
	}
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(stderr, "pvcprof bench: %s on %s: %v\n", res.Name, res.System, res.Err)
			return 2
		}
		for _, v := range res.Result.Values {
			rec.Sim[workload.SimKey(res.Name, res.System, v)] = v.Value
		}
	}

	if err := prof.AppendRecord(*out, rec); err != nil {
		fmt.Fprintf(stderr, "pvcprof bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "recorded %d simulated FOM(s) over %d cell(s) (jobs=%d) -> %s\n",
		len(rec.Sim), len(cells), *jobs, *out)
	return 0
}
