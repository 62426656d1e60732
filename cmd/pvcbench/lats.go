package main

import (
	"fmt"
	"io"

	"pvcsim/internal/core"
	"pvcsim/internal/microbench"
	"pvcsim/internal/report"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// runLats runs the memory-latency pointer-chase benchmark (§IV-A7) on
// every system and renders Figure 1 as an aligned table, CSV or SVG. All
// three render the -lo/-hi ladder; the default range is the registry's
// lats cell.
func runLats(args []string, stdout, stderr io.Writer) error {
	c := newStudyCmd("pvcbench lats", stderr)
	csv := c.Bool("csv", false, "emit CSV")
	svg := c.Bool("svg", false, "emit the figure as standalone SVG")
	lo := c.String("lo", "1 KiB", "sweep start footprint")
	hi := c.String("hi", "8 GB", "sweep end footprint")
	simulate := c.String("simulate", "", "cross-check one footprint with the execution-driven cache simulator")
	return c.run(args, func(study *core.Study) error {
		loB, err := units.ParseBytes(*lo)
		if err != nil {
			return err
		}
		hiB, err := units.ParseBytes(*hi)
		if err != nil {
			return err
		}
		if *simulate != "" {
			// Cross-check one footprint: the execution-driven cache
			// simulator against the analytic ladder.
			fp, err := units.ParseBytes(*simulate)
			if err != nil {
				return err
			}
			for _, sys := range topology.AllSystems() {
				s := microbench.NewSuite(topology.NewNode(sys))
				got, err := s.LatsSimulated(fp, 1)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%-12s footprint %-10s simulated %7.1f cycles, analytic %7.1f cycles\n",
					sys, fp, got, s.Lats(fp, fp)[0].Cycles)
			}
			return nil
		}
		ladders, err := study.Figure1(loB, hiB)
		if err != nil {
			return err
		}
		switch {
		case *csv:
			return core.Figure1CSV(stdout, ladders)
		case *svg:
			return core.Figure1SVG(stdout, ladders)
		}
		t := report.NewTable("Figure 1: memory access latency [cycles] (coalesced pointer chase)",
			"Footprint", "Aurora", "Dawn", "JLSE-H100", "JLSE-MI250", "Aurora level")
		for i, pt := range ladders[0] {
			row := []string{units.Bytes(pt.X).IEC()}
			for _, ladder := range ladders {
				row = append(row, fmt.Sprintf("%.0f", ladder[i].Value))
			}
			t.AddRow(append(row, pt.Scope)...)
		}
		return t.Render(stdout)
	})
}
