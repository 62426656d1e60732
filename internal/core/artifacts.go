package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pvcsim/internal/microbench"
	"pvcsim/internal/report"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// WriteAllArtifacts regenerates the paper's complete artifact into dir:
// every table as aligned text and CSV, Figure 1 as CSV and SVG, Figures
// 2–4 as text bar charts, and the EXPERIMENTS fidelity report — the
// equivalent of running the artifact's run_table.sh / run_lats.sh /
// mini-app scripts end to end.
//
// Every simulation cell is prefetched through the study's runner first
// (in parallel when the study was built with NewParallelStudy), so the
// rendering below is a pure cache-served view. If any artifact fails to
// write, the files created by this call are removed so a half-written
// directory is never left behind.
func (s *Study) WriteAllArtifacts(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Simulate everything up front, across the runner's workers.
	if err := s.Prefetch(context.Background()); err != nil {
		return err
	}
	var written []string
	defer func() {
		if err == nil {
			return
		}
		for _, p := range written {
			os.Remove(p)
		}
	}()
	writeFile := func(name string, fn func(f *os.File) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		written = append(written, path)
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("core: writing %s: %w", name, err)
		}
		return f.Close()
	}

	// Tables.
	if err := writeFile("table1.txt", func(f *os.File) error { return s.TableI().Render(f) }); err != nil {
		return err
	}
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		t2, err := s.TableII(sys)
		if err != nil {
			return err
		}
		base := fmt.Sprintf("table2_%s", sysSlug(sys))
		if err := writeFile(base+".txt", func(f *os.File) error { return t2.Render(f) }); err != nil {
			return err
		}
		if err := writeFile(base+".csv", func(f *os.File) error { return t2.CSV(f) }); err != nil {
			return err
		}
	}
	t3, err := s.TableIII()
	if err != nil {
		return err
	}
	if err := writeFile("table3.txt", func(f *os.File) error { return t3.Render(f) }); err != nil {
		return err
	}
	if err := writeFile("table3.csv", func(f *os.File) error { return t3.CSV(f) }); err != nil {
		return err
	}
	if err := writeFile("table4.txt", func(f *os.File) error { return s.TableIV().Render(f) }); err != nil {
		return err
	}
	if err := writeFile("table5.txt", func(f *os.File) error { return s.TableV().Render(f) }); err != nil {
		return err
	}
	t6, err := s.TableVI()
	if err != nil {
		return err
	}
	if err := writeFile("table6.txt", func(f *os.File) error { return t6.Render(f) }); err != nil {
		return err
	}
	if err := writeFile("table6.csv", func(f *os.File) error { return t6.CSV(f) }); err != nil {
		return err
	}

	// Figure 1: CSV and SVG. Like every other artifact file, each fetches
	// the registry's lats cells through the memo itself.
	figure1 := func(render func(io.Writer, [][]workload.Value) error) func(*os.File) error {
		return func(f *os.File) error {
			ladders, err := s.Figure1(microbench.LatsDefaultLo, microbench.LatsDefaultHi)
			if err != nil {
				return err
			}
			return render(f, ladders)
		}
	}
	if err := writeFile("figure1.csv", figure1(Figure1CSV)); err != nil {
		return err
	}
	if err := writeFile("figure1.svg", figure1(Figure1SVG)); err != nil {
		return err
	}

	// Figures 2-4 as text charts and SVG.
	writeChart := func(base string, chart *report.BarChart) error {
		if err := writeFile(base+".txt", func(f *os.File) error { return chart.Render(f) }); err != nil {
			return err
		}
		return writeFile(base+".svg", func(f *os.File) error {
			return report.NewSVGBarChart(chart).Render(f)
		})
	}
	f2, err := s.Figure2()
	if err != nil {
		return err
	}
	if err := writeChart("figure2", f2); err != nil {
		return err
	}
	for _, fig := range []struct {
		name  string
		build func(topology.System) (*report.BarChart, error)
	}{
		{"figure3", s.Figure3},
		{"figure4", s.Figure4},
	} {
		for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
			chart, err := fig.build(sys)
			if err != nil {
				return err
			}
			if err := writeChart(fmt.Sprintf("%s_%s", fig.name, sysSlug(sys)), chart); err != nil {
				return err
			}
		}
	}

	// Fidelity report.
	return writeFile("EXPERIMENTS.md", func(f *os.File) error { return s.WriteExperimentsMarkdown(f) })
}

func sysSlug(sys topology.System) string {
	switch sys {
	case topology.Aurora:
		return "aurora"
	case topology.Dawn:
		return "dawn"
	case topology.JLSEH100:
		return "h100"
	case topology.JLSEMI250:
		return "mi250"
	default:
		return "frontier"
	}
}
