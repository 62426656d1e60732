// Command pvcbench regenerates the paper's tables and figures on the
// simulated systems. The root command runs the microbenchmark suite,
// checks the benchmark kernels on the host and prints Tables I–IV (the
// run_table.sh workflow of the artifact); its modes run the registry's
// workloads, sweeps and extensions. The subcommands cover the rest of
// the study; `pvcbench -h` lists them.
//
// Usage:
//
//	pvcbench [-table N] [-system name] [-csv] [-experiments] [-jobs N]
//	pvcbench -list [-filter pattern]
//	pvcbench -workload NAME [-system name] [-jobs N] [-csv]
//	pvcbench -sweep FAMILY [-where k=v,k2=v2] [-jobs N] [-csv]
//	pvcbench lats [-csv|-svg] [-lo bytes] [-hi bytes] [-simulate footprint]
//	pvcbench miniapps [-table 5|6] [-figure 2|3|4] [-csv] [-svg] [-sweep]
//	pvcbench apps [-keff]
//	pvcbench nodeinfo [-system name] [-bindings] [-config file.json]
//
// -jobs fans independent (system × workload) cells across a worker pool
// with bit-identical output. -trace, -metrics and -profile write every
// computed cell's simulated timeline, counters and bound-attribution
// profile (inspect with pvcprof); they are byte-identical across -jobs.
// The root, lats and miniapps take them; apps and
// nodeinfo run no registry cell and take none of them.
//
// Exit codes: 0 on success, 1 on an error, 2 on a usage error (bad flag,
// out-of-range -table or -figure, stray argument, unknown subcommand),
// and 3 when -list -filter matched no registered workload, so scripts
// can tell "nothing matched" from "something broke".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pvcsim/internal/core"
	"pvcsim/internal/microbench"
	"pvcsim/internal/report"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
	"pvcsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Each command parses its arguments and writes its results to stdout;
// stderr takes flag usage and the observability summary.
var subcommands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}{
	{"lats", "memory-latency pointer chase: Figure 1 (run_lats.sh)", runLats},
	{"miniapps", "mini-app studies: Tables V-VI, Figures 2-4 with black bars", runMiniapps},
	{"apps", "OpenMC and HACC mechanism analyses; -keff eigenvalue demo", runApps},
	{"nodeinfo", "modeled node inventories of Section III", runNodeinfo},
}

// run executes one invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	cmd := runRoot
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = nil
		for _, sc := range subcommands {
			if sc.name == args[0] {
				cmd = sc.run
			}
		}
		if cmd == nil {
			fmt.Fprintf(stderr, "pvcbench: unknown subcommand %q (see pvcbench -h)\n", args[0])
			return 2
		}
		args = args[1:]
	}
	err := cmd(args, stdout, stderr)
	var ee exitError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ee):
		if ee.msg != "" {
			fmt.Fprintf(stderr, "pvcbench: %s\n", ee.msg)
		}
		return ee.code
	default:
		fmt.Fprintf(stderr, "pvcbench: %v\n", err)
		return 1
	}
}

// exitError ends an invocation with its own exit code: 2 for a usage
// error, 3 for a -list -filter that matched nothing. An empty msg means
// the flag package has already reported the error.
type exitError struct {
	code int
	msg  string
}

func (e exitError) Error() string { return e.msg }

func usagef(format string, a ...any) error {
	return exitError{code: 2, msg: fmt.Sprintf(format, a...)}
}

// parse parses a command's flags and rejects positional arguments.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return exitError{code: 2}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// studyCmd is the flag set of a command that simulates, with the setup
// every such command shares: -jobs and the observability flags.
type studyCmd struct {
	*flag.FlagSet
	stderr io.Writer
	jobs   int
	obs    runner.ObsFlags
}

func newStudyCmd(name string, stderr io.Writer) *studyCmd {
	c := &studyCmd{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), stderr: stderr}
	c.SetOutput(stderr)
	c.IntVar(&c.jobs, "jobs", 1, "parallel simulation workers; 0 = all CPUs")
	c.obs.Register(c.FlagSet)
	return c
}

// run parses args, builds one study with the observers attached, runs
// body on it and, once body has succeeded, writes the requested
// observability exports.
func (c *studyCmd) run(args []string, body func(*core.Study) error) error {
	if err := parse(c.FlagSet, args); err != nil {
		return err
	}
	study := core.NewParallelStudy(c.jobs)
	c.obs.Attach(study.Runner())
	if err := body(study); err != nil {
		return err
	}
	return c.obs.Finish(c.stderr)
}

// emitTables renders each table as aligned text or CSV, followed by a
// blank line.
func emitTables(w io.Writer, csv bool, tables ...*report.Table) error {
	for _, t := range tables {
		render := t.Render
		if csv {
			render = t.CSV
		}
		if err := render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runRoot(args []string, stdout, stderr io.Writer) error {
	c := newStudyCmd("pvcbench", stderr)
	c.Usage = func() {
		fmt.Fprintf(stderr, "Usage: pvcbench [flags]\n       pvcbench <subcommand> [flags]\n\nSubcommands:\n")
		for _, sc := range subcommands {
			fmt.Fprintf(stderr, "  %-9s %s\n", sc.name, sc.summary)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		c.PrintDefaults()
	}
	table := c.Int("table", 0, "print only one table (1-4); 0 = all")
	system := c.String("system", "", "restrict Table II (or -workload) to one system (aurora|dawn|h100|mi250)")
	csv := c.Bool("csv", false, "emit CSV instead of aligned text")
	experiments := c.Bool("experiments", false, "emit the EXPERIMENTS.md fidelity report and exit")
	skipCheck := c.Bool("skip-selfcheck", false, "skip the host kernel self-checks")
	p2pCurves := c.Bool("p2p-curves", false, "emit the P2P message-size sweep (latency-bandwidth curves) and exit")
	frontier := c.Bool("frontier", false, "emit the Frontier future-work outlook and exit")
	artifacts := c.String("artifacts", "", "write the complete artifact (all tables, figures, EXPERIMENTS.md) into this directory and exit")
	energy := c.Bool("energy", false, "emit the energy-to-solution comparison and exit")
	list := c.Bool("list", false, "enumerate the registered workloads and exit")
	filter := c.String("filter", "", "restrict -list to names matching this glob `pattern` (or name prefix); exit code 3 when nothing matches")
	workloadName := c.String("workload", "", "run one registered workload by name and exit")
	sweepName := c.String("sweep", "", "expand one scenario `family` (see internal/sweep) and run every cell; combine with -where")
	whereClause := c.String("where", "", "restrict -sweep to axis values, e.g. \"system=aurora,nodes=4\"")

	return c.run(args, func(study *core.Study) error {
		if *table < 0 || *table > 4 {
			return usagef("-table %d: want 1-4, or 0 for all", *table)
		}
		if *list {
			n, err := runner.List(stdout, study.Registry(), *filter)
			if err == nil && n == 0 {
				err = exitError{code: 3, msg: fmt.Sprintf("-filter %q matched no registered workload", *filter)}
			}
			return err
		}

		var only []topology.System
		systems := []topology.System{topology.Aurora, topology.Dawn}
		if *system != "" {
			sys, err := topology.ParseSystem(*system)
			if err != nil {
				return err
			}
			only = []topology.System{sys}
			systems = only
		}

		switch {
		case *workloadName != "":
			return runner.RunNamed(context.Background(), stdout, study.Runner(), study.Registry(),
				*workloadName, only, *csv)
		case *sweepName != "":
			return runSweep(stdout, study, *sweepName, *whereClause, *csv)
		case *whereClause != "":
			return errors.New("-where only restricts -sweep; pass -sweep FAMILY too")
		case *experiments:
			return study.WriteExperimentsMarkdown(stdout)
		case *frontier:
			return study.FrontierOutlook().Render(stdout)
		case *artifacts != "":
			if err := study.WriteAllArtifacts(*artifacts); err != nil {
				return err
			}
			_, err := fmt.Fprintf(stdout, "artifact written to %s\n", *artifacts)
			return err
		case *p2pCurves:
			return printP2PCurves(stdout, study)
		case *energy:
			return printEnergy(stdout, study)
		}

		if !*skipCheck {
			if err := microbench.HostSelfCheck(); err != nil {
				return fmt.Errorf("host kernel self-check failed: %w", err)
			}
			fmt.Fprintln(stdout, "host kernel self-checks passed (triad, FMA chain, GEMM, FFT, I8 GEMM)")
			fmt.Fprintln(stdout)
		}
		var tables []*report.Table
		if *table == 0 || *table == 1 {
			tables = append(tables, study.TableI())
		}
		if *table == 0 || *table == 2 {
			for _, sys := range systems {
				t, err := study.TableII(sys)
				if err != nil {
					return err
				}
				tables = append(tables, t)
			}
		}
		if *table == 0 || *table == 3 {
			t, err := study.TableIII()
			if err != nil {
				return err
			}
			tables = append(tables, t)
		}
		if *table == 0 || *table == 4 {
			tables = append(tables, study.TableIV())
		}
		return emitTables(stdout, *csv, tables...)
	})
}

// runSweep expands one scenario family (optionally restricted by a
// -where clause) and runs every resulting cell on its systems through
// the study's memoizing runner, rendering one combined results table.
func runSweep(out io.Writer, study *core.Study, name, whereStr string, csv bool) error {
	f, ok := sweep.FamilyByName(name)
	if !ok {
		var names []string
		for _, fam := range sweep.DefaultFamilies() {
			names = append(names, fam.Name)
		}
		return fmt.Errorf("unknown sweep family %q (have: %s)", name, strings.Join(names, ", "))
	}
	where, err := sweep.ParseWhere(whereStr)
	if err != nil {
		return err
	}
	cells, err := f.Expand(where)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Sweep %s: %s (%d cells)", f.Name, f.Desc, len(cells)),
		"Cell", "System", "Metric", "Scope", "Value", "Unit", "Bound resource")
	for _, res := range study.Runner().Run(context.Background(), runner.Cells(cells)) {
		if res.Err != nil {
			return res.Err
		}
		for _, v := range res.Result.Values {
			t.AddRow(res.Name, res.System.String(), v.Metric, v.Scope, report.Num(v.Value), v.Unit, v.Bound)
		}
	}
	if csv {
		return t.CSV(out)
	}
	return t.Render(out)
}

// printP2PCurves renders the Aurora latency-bandwidth curves for the
// three D2D path kinds, the extension of Table III to small messages.
func printP2PCurves(out io.Writer, study *core.Study) error {
	res, err := study.Result("p2p-sweep", topology.Aurora)
	if err != nil {
		return err
	}
	t := report.NewTable("P2P message-size sweep (Aurora): bandwidth [GB/s] per path",
		"Message", "Local (MDFI)", "Remote (Xe-Link)", "Remote extra-hop")
	curves := map[string][]workload.Value{
		"local":  res.Select("local"),
		"remote": res.Select("remote"),
		"extra":  res.Select("extra"),
	}
	for i := range curves["local"] {
		t.AddRow(curves["local"][i].Scope,
			report.Num(curves["local"][i].Value),
			report.Num(curves["remote"][i].Value),
			report.Num(curves["extra"][i].Value))
	}
	if err := t.Render(out); err != nil {
		return err
	}
	for _, name := range []string{"local", "remote", "extra"} {
		if v, ok := res.Lookup("n_1/2", name); ok {
			fmt.Fprintf(out, "n_1/2 (%s): %v\n", name, units.Bytes(v.Value))
		}
	}
	return nil
}

// printEnergy renders the full-node energy-to-solution comparison for a
// fixed DGEMM and FP32-FMA workload (the TDP discussion of §VII made
// quantitative).
func printEnergy(out io.Writer, study *core.Study) error {
	t := report.NewTable("Energy to solution (full node, 10 Pflop of work)",
		"System", "Workload", "Time", "Power [W]", "Energy [kJ]", "GFlop/W")
	for _, name := range []string{"DGEMM", "FP32 FMA"} {
		for _, sys := range topology.AllSystems() {
			res, err := study.Result("energy", sys)
			if err != nil {
				return err
			}
			get := func(scope string) (workload.Value, error) {
				v, ok := res.Lookup(name, scope)
				if !ok {
					return workload.Value{}, fmt.Errorf("energy: no %s %s for %s", name, scope, sys)
				}
				return v, nil
			}
			tv, err := get("time")
			if err != nil {
				return err
			}
			pv, err := get("power")
			if err != nil {
				return err
			}
			ev, err := get("energy")
			if err != nil {
				return err
			}
			fv, err := get("efficiency")
			if err != nil {
				return err
			}
			t.AddRow(sys.String(), name, units.Seconds(tv.Value).String(),
				report.Num(pv.Value), report.Num(ev.Value), report.Num(fv.Value))
		}
	}
	return t.Render(out)
}
