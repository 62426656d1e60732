// Command miniapps evaluates the four mini-apps (miniBUDE, CloverLeaf,
// miniQMC, mini-GAMESS) on the simulated systems and regenerates Table V,
// the mini-app rows of Table VI, and Figures 2–4 with their expectation
// ("black") bars.
//
// Usage:
//
//	miniapps [-table 5|6] [-figure 2|3|4] [-csv] [-jobs N]
//	miniapps -list
//	miniapps -workload NAME
//	miniapps [-trace out.json] [-metrics out.json] [-profile out.json] ...
//
// The shared observability flags record the computed cells' simulated
// timelines, counters, and bound-attribution profile (see pvcprof).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"pvcsim/internal/core"
	"pvcsim/internal/report"
	"pvcsim/internal/runner"
	"pvcsim/internal/telemetry"
	"pvcsim/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("miniapps: ")
	table := flag.Int("table", 0, "print one table (5 or 6); 0 = both")
	figure := flag.Int("figure", 0, "print one figure (2, 3 or 4); 0 = all")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	svg := flag.Bool("svg", false, "emit figures as standalone SVG instead of ASCII")
	sweep := flag.Bool("sweep", false, "print the miniBUDE ppwi/work-group tuning surface and exit")
	list := flag.Bool("list", false, "enumerate the registered workloads and exit")
	workloadName := flag.String("workload", "", "run one registered workload by name and exit")
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
		if _, err := runner.List(os.Stdout, study.Registry(), ""); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *workloadName != "" {
		err := runner.RunNamed(context.Background(), os.Stdout, study.Runner(), study.Registry(),
			*workloadName, nil, *csv)
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sweep {
		if err := printBUDESweep(study); err != nil {
			log.Fatal(err)
		}
		return
	}

	emitTable := func(t *report.Table) {
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
	emitChart := func(c *report.BarChart, err error) {
		if err != nil {
			log.Fatal(err)
		}
		if *svg {
			if err := report.NewSVGBarChart(c).Render(os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		}
		if err := c.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	wantTables := *figure == 0 || *table != 0
	if wantTables && (*table == 0 || *table == 5) {
		emitTable(study.TableV())
	}
	if wantTables && (*table == 0 || *table == 6) {
		t, err := study.TableVI()
		if err != nil {
			log.Fatal(err)
		}
		emitTable(t)
	}
	if *table != 0 && *figure == 0 {
		return
	}
	if *figure == 0 || *figure == 2 {
		emitChart(study.Figure2())
	}
	if *figure == 0 || *figure == 3 {
		for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
			emitChart(study.Figure3(sys))
		}
	}
	if *figure == 0 || *figure == 4 {
		for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
			emitChart(study.Figure4(sys))
		}
	}
}

// printBUDESweep renders the mechanistic tuning surface behind the
// paper's "combination of poses per work-item (ppwi) and work-group
// sizes" search, per system: the occupancy model's register cliff and
// dispatch-tail effects made visible. The surface comes from the
// minibude-sweep registry workload.
func printBUDESweep(study *core.Study) error {
	w, ok := study.Registry().Get("minibude-sweep")
	if !ok {
		return fmt.Errorf("minibude-sweep not registered")
	}
	for _, sys := range []topology.System{topology.Aurora, topology.JLSEH100} {
		res, err := study.Runner().RunOne(context.Background(), sys, w)
		if err != nil {
			return err
		}
		best, _ := res.Lookup("best", "")
		t := report.NewTable(
			fmt.Sprintf("miniBUDE tuning surface on %s (GInteractions/s; best %.1f)", sys, best.Value),
			"ppwi", "wg=64", "wg=128", "wg=256")
		cell := func(ppwi, wg int) float64 {
			v, _ := res.Lookup(fmt.Sprintf("ppwi=%d", ppwi), fmt.Sprintf("wg=%d", wg))
			return v.Value
		}
		for _, ppwi := range []int{1, 2, 4, 8, 16} {
			t.AddRow(fmt.Sprint(ppwi),
				report.Num(cell(ppwi, 64)),
				report.Num(cell(ppwi, 128)),
				report.Num(cell(ppwi, 256)))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
