// Command lats runs the memory-latency pointer-chase benchmark (§IV-A7)
// across the simulated systems and regenerates Figure 1 as an aligned
// table or CSV (the run_lats.sh workflow of the artifact).
//
// Usage:
//
//	lats [-csv] [-lo bytes] [-hi bytes] [-simulate footprint] [-jobs N]
//
// The shared observability flags (-trace, -metrics, -profile) record
// the computed cells' simulated timelines, counters, and
// bound-attribution profile (see pvcprof).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"pvcsim/internal/core"
	"pvcsim/internal/microbench"
	"pvcsim/internal/report"
	"pvcsim/internal/runner"
	"pvcsim/internal/telemetry"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
	"pvcsim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lats: ")
	csv := flag.Bool("csv", false, "emit CSV")
	svg := flag.Bool("svg", false, "emit the figure as standalone SVG")
	lo := flag.String("lo", "1 KiB", "sweep start footprint")
	hi := flag.String("hi", "8 GB", "sweep end footprint")
	simulate := flag.String("simulate", "", "cross-check one footprint with the execution-driven cache simulator")
	jobs := flag.Int("jobs", 1, "parallel simulation workers; 0 = all CPUs")
	var obsf runner.ObsFlags
	obsf.Register(flag.CommandLine)
	var logf telemetry.LogFlags
	logf.Register(flag.CommandLine)
	flag.Parse()
	if _, err := logf.Setup(os.Stderr); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obsf.Finish(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}()

	loB, err := units.ParseBytes(*lo)
	if err != nil {
		log.Fatal(err)
	}
	hiB, err := units.ParseBytes(*hi)
	if err != nil {
		log.Fatal(err)
	}

	if *simulate != "" {
		fp, err := units.ParseBytes(*simulate)
		if err != nil {
			log.Fatal(err)
		}
		for _, sys := range topology.AllSystems() {
			s := microbench.NewSuite(topology.NewNode(sys))
			got, err := s.LatsSimulated(fp, 1)
			if err != nil {
				log.Fatal(err)
			}
			analytic := s.Lats(fp, fp)[0].Cycles
			fmt.Printf("%-12s footprint %-10s simulated %7.1f cycles, analytic %7.1f cycles\n",
				sys, fp, got, analytic)
		}
		return
	}

	study := core.NewStudy()
	obsf.Attach(study.Runner())
	if *csv {
		if err := study.LatsCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *svg {
		plot := report.NewSVGPlot("Figure 1: Memory Latency (coalesced pointer chase)",
			"footprint [bytes, log2]", "latency [cycles]")
		plot.LogX = true
		plot.Series = study.Figure1()
		if err := plot.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Run the (possibly custom-ranged) ladder on every system through
	// the parallel runner; each system is one cell.
	w := workload.NewLats(loB, hiB)
	var cells []runner.Cell
	for _, sys := range topology.AllSystems() {
		cells = append(cells, runner.Cell{System: sys, Workload: w})
	}
	r := runner.New(*jobs)
	obsf.Attach(r)
	ladders := map[topology.System][]workload.Value{}
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		ladders[res.System] = res.Result.Select("latency")
	}

	t := report.NewTable("Figure 1: memory access latency [cycles] (coalesced pointer chase)",
		"Footprint", "Aurora", "Dawn", "JLSE-H100", "JLSE-MI250", "Aurora level")
	for i, pt := range ladders[topology.Aurora] {
		row := []string{units.Bytes(pt.X).IEC()}
		for _, sys := range topology.AllSystems() {
			row = append(row, fmt.Sprintf("%.0f", ladders[sys][i].Value))
		}
		row = append(row, pt.Scope)
		t.AddRow(row...)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	_ = core.FigureBytes // referenced for doc symmetry
}
