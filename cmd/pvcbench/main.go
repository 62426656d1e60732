// Command pvcbench runs the microbenchmark suite on the simulated systems
// and regenerates the paper's Tables I–IV (the run_table.sh workflow of
// the artifact). It also executes the host self-checks proving the
// benchmark kernels compute correct results.
//
// Usage:
//
//	pvcbench [-table N] [-system name] [-csv] [-experiments] [-jobs N]
//	pvcbench -list [-filter pattern]
//	pvcbench -workload NAME [-system name] [-jobs N] [-csv]
//	pvcbench -sweep FAMILY [-where k=v,k2=v2] [-jobs N] [-csv]
//	pvcbench [-trace out.json] [-metrics out.json] [-profile out.json] ...
//
// With no flags it prints Tables I–IV for both PVC systems. Every
// experiment of the study is registered in the workload registry;
// -list enumerates them (optionally restricted by -filter, a glob or
// name prefix) and -workload runs one by name. -sweep expands one
// scenario family from internal/sweep — optionally restricted to the
// axis values of -where — and runs every resulting cell. -jobs fans
// independent (system × workload) cells across a worker pool with
// bit-identical output. -trace records every computed cell's simulated
// timeline as Chrome trace-event JSON, -metrics dumps the per-cell
// counters, and -profile writes the bound-attribution profile (inspect
// with pvcprof report/flame); all three use simulated quantities only
// and are byte-identical across -jobs settings.
//
// Exit codes: 0 on success, 1 on any error (bad flags, unknown
// workload or sweep family, simulation failure), and 3 when -list
// -filter matched no registered workload — distinct so scripts can
// tell "nothing matched" from "something broke".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pvcsim/internal/core"
	"pvcsim/internal/microbench"
	"pvcsim/internal/report"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/telemetry"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
	"pvcsim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pvcbench: ")
	table := flag.Int("table", 0, "print only one table (1-4); 0 = all")
	system := flag.String("system", "", "restrict Table II (or -workload) to one system (aurora|dawn|h100|mi250)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	experiments := flag.Bool("experiments", false, "emit the EXPERIMENTS.md fidelity report and exit")
	skipCheck := flag.Bool("skip-selfcheck", false, "skip the host kernel self-checks")
	p2pCurves := flag.Bool("p2p-curves", false, "emit the P2P message-size sweep (latency-bandwidth curves) and exit")
	frontier := flag.Bool("frontier", false, "emit the Frontier future-work outlook and exit")
	artifacts := flag.String("artifacts", "", "write the complete artifact (all tables, figures, EXPERIMENTS.md) into this directory and exit")
	energy := flag.Bool("energy", false, "emit the energy-to-solution comparison and exit")
	list := flag.Bool("list", false, "enumerate the registered workloads and exit")
	filter := flag.String("filter", "", "restrict -list to names matching this glob `pattern` (or name prefix); exit code 3 when nothing matches")
	workloadName := flag.String("workload", "", "run one registered workload by name and exit")
	sweepName := flag.String("sweep", "", "expand one scenario `family` (see internal/sweep) and run every cell; combine with -where")
	whereClause := flag.String("where", "", "restrict -sweep to axis values, e.g. \"system=aurora,nodes=4\"")
	jobs := flag.Int("jobs", 1, "parallel simulation workers; 0 = all CPUs")
	var obsf runner.ObsFlags
	obsf.Register(flag.CommandLine)
	var logf telemetry.LogFlags
	logf.Register(flag.CommandLine)
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		log.Fatal(err)
	}

	study := core.NewParallelStudy(*jobs)
	obsf.Attach(study.Runner())
	defer func() {
		if err := obsf.Finish(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}()
	if *list {
		n, err := runner.List(os.Stdout, study.Registry(), *filter)
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "pvcbench: -filter %q matched no registered workload\n", *filter)
			os.Exit(3)
		}
		return
	}

	var only []topology.System
	if *system != "" {
		sys, err := topology.ParseSystem(*system)
		if err != nil {
			log.Fatal(err)
		}
		only = []topology.System{sys}
	}

	if *workloadName != "" {
		err := runner.RunNamed(context.Background(), os.Stdout, study.Runner(), study.Registry(),
			*workloadName, only, *csv)
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sweepName != "" {
		if err := runSweep(study, *sweepName, *whereClause, *csv); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *whereClause != "" {
		log.Fatal("-where only restricts -sweep; pass -sweep FAMILY too")
	}
	if *experiments {
		if err := study.WriteExperimentsMarkdown(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *frontier {
		if err := study.FrontierOutlook().Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *artifacts != "" {
		if err := study.WriteAllArtifacts(*artifacts); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("artifact written to %s\n", *artifacts)
		return
	}
	if *p2pCurves {
		if err := printP2PCurves(study); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *energy {
		if err := printEnergy(study); err != nil {
			log.Fatal(err)
		}
		return
	}

	if !*skipCheck {
		if err := microbench.HostSelfCheck(); err != nil {
			log.Fatalf("host kernel self-check failed: %v", err)
		}
		fmt.Println("host kernel self-checks passed (triad, FMA chain, GEMM, FFT, I8 GEMM)")
		fmt.Println()
	}

	systems := []topology.System{topology.Aurora, topology.Dawn}
	if len(only) > 0 {
		systems = only
	}

	emit := func(t *report.Table) {
		var err error
		if *csv {
			err = t.CSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if *table == 0 || *table == 1 {
		emit(study.TableI())
	}
	if *table == 0 || *table == 2 {
		for _, sys := range systems {
			t, err := study.TableII(sys)
			if err != nil {
				log.Fatal(err)
			}
			emit(t)
		}
	}
	if *table == 0 || *table == 3 {
		t, err := study.TableIII()
		if err != nil {
			log.Fatal(err)
		}
		emit(t)
	}
	if *table == 0 || *table == 4 {
		emit(study.TableIV())
	}
}

// fetch runs one registered workload on one system through the study's
// memoizing runner.
func fetch(study *core.Study, name string, sys topology.System) (workload.Result, error) {
	w, ok := study.Registry().Get(name)
	if !ok {
		return workload.Result{}, fmt.Errorf("workload %q not registered", name)
	}
	return study.Runner().RunOne(context.Background(), sys, w)
}

// runSweep expands one scenario family (optionally restricted by a
// -where clause) and runs every resulting cell on its systems through
// the study's memoizing runner, rendering one combined results table.
func runSweep(study *core.Study, name, whereStr string, csv bool) error {
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
	var rcells []runner.Cell
	for _, w := range cells {
		for _, sys := range w.Systems() {
			rcells = append(rcells, runner.Cell{System: sys, Workload: w})
		}
	}
	t := report.NewTable(fmt.Sprintf("Sweep %s: %s (%d cells)", f.Name, f.Desc, len(cells)),
		"Cell", "System", "Metric", "Scope", "Value", "Unit", "Bound resource")
	for _, res := range study.Runner().Run(context.Background(), rcells) {
		if res.Err != nil {
			return res.Err
		}
		for _, v := range res.Result.Values {
			t.AddRow(res.Name, res.System.String(), v.Metric, v.Scope, report.Num(v.Value), v.Unit, v.Bound)
		}
	}
	if csv {
		return t.CSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}

// printP2PCurves renders the Aurora latency-bandwidth curves for the
// three D2D path kinds, the extension of Table III to small messages.
func printP2PCurves(study *core.Study) error {
	res, err := fetch(study, "p2p-sweep", topology.Aurora)
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
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, name := range []string{"local", "remote", "extra"} {
		if v, ok := res.Lookup("n_1/2", name); ok {
			fmt.Printf("n_1/2 (%s): %v\n", name, units.Bytes(v.Value))
		}
	}
	return nil
}

// printEnergy renders the full-node energy-to-solution comparison for a
// fixed DGEMM and FP32-FMA workload (the TDP discussion of §VII made
// quantitative).
func printEnergy(study *core.Study) error {
	t := report.NewTable("Energy to solution (full node, 10 Pflop of work)",
		"System", "Workload", "Time", "Power [W]", "Energy [kJ]", "GFlop/W")
	for _, name := range []string{"DGEMM", "FP32 FMA"} {
		for _, sys := range topology.AllSystems() {
			res, err := fetch(study, "energy", sys)
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
	return t.Render(os.Stdout)
}
