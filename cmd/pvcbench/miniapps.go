package main

import (
	"fmt"
	"io"

	"pvcsim/internal/core"
	"pvcsim/internal/report"
	"pvcsim/internal/topology"
)

// runMiniapps evaluates the four mini-apps (miniBUDE, CloverLeaf,
// miniQMC, mini-GAMESS) and renders Table V, Table VI and Figures 2–4
// with their expectation ("black") bars.
func runMiniapps(args []string, stdout, stderr io.Writer) error {
	c := newStudyCmd("pvcbench miniapps", stderr)
	table := c.Int("table", 0, "print one table (5 or 6); 0 = both")
	figure := c.Int("figure", 0, "print one figure (2, 3 or 4); 0 = all")
	csv := c.Bool("csv", false, "emit tables as CSV")
	svg := c.Bool("svg", false, "emit figures as standalone SVG instead of ASCII")
	budeSweep := c.Bool("sweep", false, "print the miniBUDE ppwi/work-group tuning surface and exit")
	return c.run(args, func(study *core.Study) error {
		if *table != 0 && *table != 5 && *table != 6 {
			return usagef("-table %d: want 5 or 6, or 0 for both", *table)
		}
		if *figure != 0 && (*figure < 2 || *figure > 4) {
			return usagef("-figure %d: want 2, 3 or 4, or 0 for all", *figure)
		}
		if *budeSweep {
			return printBUDESweep(stdout, study)
		}
		var tables []*report.Table
		if *figure == 0 || *table != 0 {
			if *table == 0 || *table == 5 {
				tables = append(tables, study.TableV())
			}
			if *table == 0 || *table == 6 {
				t, err := study.TableVI()
				if err != nil {
					return err
				}
				tables = append(tables, t)
			}
		}
		if err := emitTables(stdout, *csv, tables...); err != nil {
			return err
		}
		if *table != 0 && *figure == 0 {
			return nil
		}
		emitChart := func(c *report.BarChart, err error) error {
			if err != nil {
				return err
			}
			if *svg {
				return report.NewSVGBarChart(c).Render(stdout)
			}
			if err := c.Render(stdout); err != nil {
				return err
			}
			_, err = fmt.Fprintln(stdout)
			return err
		}
		if *figure == 0 || *figure == 2 {
			if err := emitChart(study.Figure2()); err != nil {
				return err
			}
		}
		pvcs := []topology.System{topology.Aurora, topology.Dawn}
		if *figure == 0 || *figure == 3 {
			for _, sys := range pvcs {
				if err := emitChart(study.Figure3(sys)); err != nil {
					return err
				}
			}
		}
		if *figure == 0 || *figure == 4 {
			for _, sys := range pvcs {
				if err := emitChart(study.Figure4(sys)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// printBUDESweep renders the mechanistic tuning surface behind the
// paper's "combination of poses per work-item (ppwi) and work-group
// sizes" search, per system: the occupancy model's register cliff and
// dispatch-tail effects made visible. The surface comes from the
// minibude-sweep registry workload.
func printBUDESweep(out io.Writer, study *core.Study) error {
	for _, sys := range []topology.System{topology.Aurora, topology.JLSEH100} {
		res, err := study.Result("minibude-sweep", sys)
		if err != nil {
			return err
		}
		best, _ := res.Lookup("best", "")
		t := report.NewTable(
			fmt.Sprintf("miniBUDE tuning surface on %s (GInteractions/s; best %.1f)", sys, best.Value),
			"ppwi", "wg=64", "wg=128", "wg=256")
		for _, ppwi := range []int{1, 2, 4, 8, 16} {
			row := []string{fmt.Sprint(ppwi)}
			for _, wg := range []int{64, 128, 256} {
				v, _ := res.Lookup(fmt.Sprintf("ppwi=%d", ppwi), fmt.Sprintf("wg=%d", wg))
				row = append(row, report.Num(v.Value))
			}
			t.AddRow(row...)
		}
		if err := emitTables(out, false, t); err != nil {
			return err
		}
	}
	return nil
}
