package runner

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strings"

	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/report"
	"pvcsim/internal/topology"
	"pvcsim/internal/wallprof"
	"pvcsim/internal/workload"
)

// ObsFlags bundles the observability flags (-trace, -metrics, -profile)
// shared by the command line tools: Register them on the flag set,
// Attach the resulting collector to every runner the tool uses, and
// Finish once to write the requested files plus a per-cell summary on
// stderr.
type ObsFlags struct {
	Trace     string
	Metrics   string
	Profile   string
	Wall      string
	WallTrace string
	col       *obs.Collector
	stats     *Stats
	wc        *wallprof.Collector
}

// Register declares the flags on the flag set.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "",
		"write a Chrome trace-event JSON timeline of every computed cell to `file` (open in Perfetto / about:tracing)")
	fs.StringVar(&f.Metrics, "metrics", "",
		"write a machine-readable JSON metrics report (per-cell counters, simulated quantities only) to `file`")
	fs.StringVar(&f.Profile, "profile", "",
		"write a bound-attribution profile (per-cell residency under each resource ceiling) to `file`; inspect with pvcprof")
	fs.StringVar(&f.Wall, "wallprof", "",
		"write a wall-clock self-profile (engine busy time, runner phases; host time, never simulated results) to `file`; inspect with pvcprof wall")
	fs.StringVar(&f.WallTrace, "wall-trace", "",
		"write a wall-time Chrome trace-event JSON timeline (engine runs, runner phases) to `file`")
}

// Enabled reports whether any observability output was requested.
func (f *ObsFlags) Enabled() bool {
	return f.Trace != "" || f.Metrics != "" || f.Profile != "" || f.WallEnabled()
}

// WallEnabled reports whether a wall-clock self-profiling output was
// requested.
func (f *ObsFlags) WallEnabled() bool { return f.Wall != "" || f.WallTrace != "" }

// Attach wires one shared collector into the runners when an output was
// requested; with neither flag set it attaches nothing, keeping the hot
// path recorder-free. The wall-clock collector attaches independently of
// the simulated-observability collector: each rides only on its own
// flags.
func (f *ObsFlags) Attach(rs ...*Runner) {
	if !f.Enabled() {
		return
	}
	simOut := f.Trace != "" || f.Metrics != "" || f.Profile != ""
	if simOut && f.col == nil {
		f.col = obs.NewCollector()
		f.stats = &Stats{}
	}
	if f.WallEnabled() && f.wc == nil {
		f.wc = wallprof.New()
		if f.WallTrace != "" {
			f.wc.EnableTimeline()
		}
	}
	for _, r := range rs {
		if f.col != nil {
			r.Observe(f.col)
			r.AddHooks(f.stats)
		}
		if f.wc != nil {
			r.ProfileWall(f.wc)
		}
	}
}

// WallCollector returns the wall-clock collector Attach created (nil
// when no wall output was requested), so daemons can feed its totals
// into live telemetry after a run.
func (f *ObsFlags) WallCollector() *wallprof.Collector { return f.wc }

// Finish writes the requested trace and metrics files and, when summary
// is non-nil, the human-facing per-cell table. It is a no-op when
// nothing was attached.
func (f *ObsFlags) Finish(summary io.Writer) error {
	if f.col == nil && f.wc == nil {
		return nil
	}
	write := func(path string, render func(io.Writer) error) error {
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(file); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}
	if f.col != nil {
		rep := f.col.Report()
		// The simulated-artifact exports are themselves a runner phase
		// worth profiling: time them into the wall collector when one
		// is attached.
		var exportT0 int64
		if f.wc != nil {
			exportT0 = f.wc.Now()
		}
		if f.Trace != "" {
			if err := write(f.Trace, rep.WriteChromeTrace); err != nil {
				return fmt.Errorf("runner: writing trace: %w", err)
			}
		}
		if f.Metrics != "" {
			if err := write(f.Metrics, rep.WriteMetrics); err != nil {
				return fmt.Errorf("runner: writing metrics: %w", err)
			}
		}
		if f.Profile != "" {
			if err := write(f.Profile, prof.Build(rep).WriteJSON); err != nil {
				return fmt.Errorf("runner: writing profile: %w", err)
			}
		}
		if f.wc != nil {
			f.wc.AddExportNS(f.wc.Now() - exportT0)
		}
		if summary != nil {
			if err := rep.Summary(summary); err != nil {
				return err
			}
			// The lifecycle-hook tallies: wall-clock facts only, printed
			// after the simulated summary so they can never be confused
			// with results.
			fmt.Fprintf(summary, "runner: %d computed, %d cache hit(s), %d panic(s) recovered\n",
				f.stats.Computed(), f.stats.CacheHits(), f.stats.Panics())
		}
	}
	if f.wc != nil {
		if f.Wall != "" {
			if err := write(f.Wall, f.wc.Report().WriteJSON); err != nil {
				return fmt.Errorf("runner: writing wall profile: %w", err)
			}
		}
		if f.WallTrace != "" {
			if err := write(f.WallTrace, f.wc.WriteChromeTrace); err != nil {
				return fmt.Errorf("runner: writing wall trace: %w", err)
			}
		}
	}
	return nil
}

// List renders the registry as the -list table shared by the command
// line tools: one row per workload with its systems and parameters.
// A non-empty pattern restricts the rows: it is matched as a path.Match
// glob against each name ("clover-strong/*", "allreduce/*algo=ring*"),
// or, when it contains no glob metacharacters, as a name prefix
// ("clover"). List returns the number of rows rendered so callers can
// exit distinctly when a filter matched nothing.
func List(out io.Writer, reg *workload.Registry, pattern string) (int, error) {
	match := func(string) bool { return true }
	if pattern != "" {
		if strings.ContainsAny(pattern, "*?[\\") {
			if _, err := path.Match(pattern, ""); err != nil {
				return 0, fmt.Errorf("runner: bad -filter pattern %q: %w", pattern, err)
			}
			match = func(name string) bool {
				ok, _ := path.Match(pattern, name)
				return ok
			}
		} else {
			match = func(name string) bool { return strings.HasPrefix(name, pattern) }
		}
	}
	t := report.NewTable("Registered workloads", "Name", "Systems", "Parameters", "Description")
	n := 0
	for _, w := range reg.Workloads() {
		if !match(w.Name()) {
			continue
		}
		n++
		var names []string
		for _, sys := range w.Systems() {
			names = append(names, sys.String())
		}
		t.AddRow(w.Name(), strings.Join(names, ","), workload.ParamsOf(w), workload.DescriptionOf(w))
	}
	if n == 0 {
		return 0, nil
	}
	return n, t.Render(out)
}

// RunNamed executes one registered workload (on the given systems, or on
// every supported system when none are given) through the runner and
// renders its self-describing results as a table — the -workload NAME
// path shared by the command line tools.
func RunNamed(ctx context.Context, out io.Writer, r *Runner, reg *workload.Registry,
	name string, systems []topology.System, csv bool) error {
	w, ok := reg.Get(name)
	if !ok {
		return fmt.Errorf("runner: unknown workload %q (use -list to enumerate; have %s)",
			name, strings.Join(reg.SortedNames(), ", "))
	}
	if len(systems) == 0 {
		systems = w.Systems()
	}
	var cells []Cell
	for _, sys := range systems {
		cells = append(cells, Cell{System: sys, Workload: w})
	}
	results := r.Run(ctx, cells)
	t := report.NewTable(fmt.Sprintf("Workload %s: %s", name, workload.DescriptionOf(w)),
		"System", "Metric", "Scope", "Value", "Unit", "Bound resource")
	for _, res := range results {
		if res.Err != nil {
			return res.Err
		}
		for _, v := range res.Result.Values {
			t.AddRow(res.System.String(), v.Metric, v.Scope, report.Num(v.Value), v.Unit, v.Bound)
		}
	}
	if csv {
		return t.CSV(out)
	}
	return t.Render(out)
}
