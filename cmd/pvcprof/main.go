// Command pvcprof inspects and guards the simulator's bound-attribution
// profiles: it renders per-cell residency tables and folded-stack
// flamegraphs from a -profile export, compares two exports with
// per-metric thresholds, and maintains the repo's bench trajectory.
//
// Usage:
//
//	pvcprof report profile.json            residency tables (human)
//	pvcprof flame profile.json             folded stacks (flamegraph.pl input)
//	pvcprof diff [flags] old.json new.json compare two exports
//	pvcprof bench [flags]                  run the bench set, append a record
//	pvcprof wall report wall.json          engine and runner-phase tables
//	pvcprof wall flame wall.json           wall-time folded stacks
//	pvcprof wall diff [flags] a.json b.json compare two wall self-profiles
//	pvcprof history [flags] history.jsonl  pvcd run-history trends + regression flags
//
// diff accepts any pvcsim export — a -profile file, a -metrics file, a
// -wallprof file, or a bench record array (the last record is compared)
// — and exits 1 when a simulated metric drifted beyond its threshold.
// Simulated figures are deterministic, so the default threshold is
// exact equality; wall-clock figures only ever warn unless
// -fail-on-wall is set. An input missing a wall stat the other carries
// is noted, never treated as zero.
//
// wall inspects the simulator's wall-clock self-profile (a -wallprof
// export): where host time went — engine run time, event-struct churn,
// and runner phases.
//
//	pvcprof diff -rel-tol 0.01 -metric-tol 'wall.run_ms=0.5' old.json new.json
//
// bench runs the six Table V/VI figure-of-merit workloads through the
// parallel runner, records their simulated FOMs plus the wall-clock
// cost of the run itself, and appends the record to BENCH_<date>.json
// (override with -out). Simulated and wall-clock quantities live in
// separate fields of the record, so diffing the file hard-fails only on
// simulated drift.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/telemetry"
	"pvcsim/internal/wallprof"
	"pvcsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "pvcprof: usage: pvcprof report|flame|diff|bench|wall [flags] [files]")
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
		fmt.Fprintln(stderr, "pvcprof wall: usage: pvcprof wall report|flame|diff [flags] [files]")
		return 2
	}
	switch args[0] {
	case "report":
		return runWallRender(args[1:], stdout, stderr, "report", (*wallprof.Report).WriteReport)
	case "flame":
		return runWallRender(args[1:], stdout, stderr, "flame", (*wallprof.Report).WriteFlame)
	case "diff":
		// ParseMetrics recognizes wall profiles, so the shared diff
		// path compares them (every metric wall-classed: warnings
		// unless -fail-on-wall).
		return runDiff(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "pvcprof wall: unknown subcommand %q (want report, flame, or diff)\n", args[0])
		return 2
	}
}

// loadWall reads a -wallprof export.
func loadWall(path string) (*wallprof.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := prof.ParseMetrics(data)
	if err != nil {
		return nil, err
	}
	if m.Source != "wall" {
		return nil, fmt.Errorf("%s is a %s export; wall report/flame need a -wallprof file", path, m.Source)
	}
	var r wallprof.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// runWallRender is the shared wall report/flame path.
func runWallRender(args []string, stdout, stderr io.Writer, name string,
	render func(*wallprof.Report, io.Writer) error) int {
	fs := flag.NewFlagSet("pvcprof wall "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var logf telemetry.LogFlags
	logf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logf.Setup(stderr); err != nil {
		fmt.Fprintf(stderr, "pvcprof wall %s: %v\n", name, err)
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
	var logf telemetry.LogFlags
	logf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logf.Setup(stderr); err != nil {
		fmt.Fprintf(stderr, "pvcprof %s: %v\n", name, err)
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
	wallTol := fs.Float64("wall-rel-tol", 0.25,
		"relative tolerance for wall-clock metrics before a warning is printed")
	failOnWall := fs.Bool("fail-on-wall", false,
		"treat wall-clock drift beyond its tolerance as a failure, not a warning")
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
	var logf telemetry.LogFlags
	logf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logf.Setup(stderr); err != nil {
		fmt.Fprintln(stderr, "pvcprof diff:", err)
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
	res := prof.Diff(oldM, newM, prof.DiffOptions{
		RelTol: *relTol, WallRelTol: *wallTol, FailOnWall: *failOnWall, PerMetric: perMetric,
	})
	for _, m := range res.Missing {
		fmt.Fprintf(stdout, "FAIL %s: present in old, missing in new\n", m)
	}
	for _, l := range res.Regressions {
		fmt.Fprintf(stdout, "FAIL %s\n", l)
	}
	for _, l := range res.Warnings {
		fmt.Fprintf(stdout, "warn %s\n", l)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	for _, m := range res.Added {
		fmt.Fprintf(stdout, "note %s: new metric, no baseline\n", m)
	}
	for _, m := range res.WallMissing {
		fmt.Fprintf(stdout, "note %s: %s lacks this wall stat (recorded without self-profiling?); not compared\n",
			m, fs.Arg(1))
	}
	if res.Failed() {
		fmt.Fprintf(stderr, "pvcprof diff: %d regression(s)\n", len(res.Regressions)+len(res.Missing))
		return 1
	}
	if oldM.Source == "wall" {
		fmt.Fprintf(stdout, "ok: %d wall stat(s) compared (warnings only unless -fail-on-wall)\n", len(oldM.Wall))
	} else {
		fmt.Fprintf(stdout, "ok: %d simulated metric(s) within tolerance\n", len(oldM.Sim))
	}
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
	var logf telemetry.LogFlags
	logf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := logf.Setup(stderr); err != nil {
		fmt.Fprintln(stderr, "pvcprof bench:", err)
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
	// Bench runs always self-profile: the engine totals land in the
	// record's wall side so the trajectory tracks engine busy time
	// alongside raw run time.
	wc := wallprof.New()
	r.ProfileWall(wc)
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

	begin := time.Now()
	results := r.Run(context.Background(), cells)
	wall := time.Since(begin)

	rec := prof.Record{
		Schema:    prof.BenchSchemaVersion,
		Date:      *date,
		Label:     *label,
		GoVersion: runtime.Version(),
		Sim:       map[string]float64{},
		Wall: prof.WallStats{
			RunMS: float64(wall) / float64(time.Millisecond),
			Jobs:  *jobs,
			Cells: len(cells),
		},
	}
	for _, c := range wc.Report().Cells {
		rec.Wall.BuildMS += c.BuildMS
		rec.Wall.SimulateMS += c.SimulateMS
		rec.Wall.LaneBusyMS += c.EngineRunMS
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
	names := make([]string, 0, len(rec.Sim))
	for n := range rec.Sim {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "recorded %d simulated FOM(s) over %d cell(s) in %s (jobs=%d) -> %s\n",
		len(names), len(cells), wall.Round(time.Millisecond), *jobs, *out)
	return 0
}
