package core

import (
	"strings"
	"testing"

	"pvcsim/internal/expected"
	"pvcsim/internal/microbench"
	"pvcsim/internal/paper"
	"pvcsim/internal/report"
	"pvcsim/internal/topology"
)

func TestTableI(t *testing.T) {
	s := NewStudy()
	tb := s.TableI()
	if len(tb.Rows) != 7 {
		t.Errorf("Table I rows = %d, want 7 benchmarks", len(tb.Rows))
	}
}

func TestTableIIRenders(t *testing.T) {
	s := NewStudy()
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		tb, err := s.TableII(sys)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != 14 {
			t.Errorf("%v: rows = %d, want 14", sys, len(tb.Rows))
		}
		var b strings.Builder
		if err := tb.Render(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "DGEMM") {
			t.Error("missing DGEMM row")
		}
	}
}

func TestTableIIIRenders(t *testing.T) {
	s := NewStudy()
	tb, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 { // 4 rows × 2 systems
		t.Errorf("rows = %d, want 8", len(tb.Rows))
	}
}

func TestTableIVAndV(t *testing.T) {
	s := NewStudy()
	if got := len(s.TableIV().Rows); got != 3 {
		t.Errorf("Table IV rows = %d", got)
	}
	if got := len(s.TableV().Rows); got != 6 {
		t.Errorf("Table V rows = %d", got)
	}
}

func TestFOMDispatchCoverage(t *testing.T) {
	s := NewStudy()
	// Every published Table VI cell must be reproducible through the
	// dispatcher.
	for _, w := range paper.Workloads() {
		for _, sys := range topology.AllSystems() {
			pub, ok := paper.TableVI[w][sys]
			if !ok {
				continue
			}
			check := func(g expected.Granularity, want float64) {
				if want == 0 {
					return
				}
				v, okV, err := s.FOM(w, sys, g)
				if err != nil {
					t.Fatalf("%v %v %v: %v", w, sys, g, err)
				}
				if !okV {
					t.Fatalf("%v %v %v: no value for a published cell", w, sys, g)
				}
				if v <= 0 {
					t.Fatalf("%v %v %v: non-positive FOM", w, sys, g)
				}
			}
			check(expected.PerStack, pub.OneStack)
			check(expected.PerGPU, pub.OneGPU)
			check(expected.PerNode, pub.FullNode)
		}
	}
}

func TestFOMMiniBudePerNodeBlank(t *testing.T) {
	s := NewStudy()
	if _, ok, _ := s.FOM(paper.MiniBUDE, topology.Aurora, expected.PerNode); ok {
		t.Error("miniBUDE has no full-node value (not an MPI app)")
	}
	// mini-GAMESS on MI250: blank cell, no error (build failure in paper).
	_, ok, err := s.FOM(paper.MiniGAMESS, topology.JLSEMI250, expected.PerStack)
	if ok || err != nil {
		t.Errorf("mini-GAMESS MI250 = ok=%v err=%v, want blank", ok, err)
	}
	if _, _, err := s.FOM(paper.Workload("bogus"), topology.Aurora, expected.PerStack); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestTableVIRenders(t *testing.T) {
	s := NewStudy()
	tb, err := s.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"miniBUDE", "CloverLeaf", "miniQMC", "mini-GAMESS", "OpenMC", "HACC"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table VI missing %s", want)
		}
	}
}

func TestFigure1SeriesShape(t *testing.T) {
	s := NewStudy()
	ladders, err := s.Figure1(microbench.LatsDefaultLo, microbench.LatsDefaultHi)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladders) != 4 {
		t.Fatalf("ladders = %d, want 4 systems", len(ladders))
	}
	for i, ladder := range ladders {
		if len(ladder) < 20 {
			t.Errorf("%s: only %d points", topology.AllSystems()[i], len(ladder))
		}
	}
	var b strings.Builder
	if err := Figure1CSV(&b, ladders); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "footprint_bytes,Aurora,Dawn,JLSE-H100,JLSE-MI250") {
		t.Errorf("CSV header: %s", strings.SplitN(b.String(), "\n", 2)[0])
	}
}

func TestFigures234(t *testing.T) {
	s := NewStudy()
	f2, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Bars) < 8 {
		t.Errorf("Figure 2 bars = %d", len(f2.Bars))
	}
	// The worked example: the miniBUDE per-stack bar sits near 0.80
	// measured with a 0.88 expectation.
	found := false
	for _, b := range f2.Bars {
		if strings.Contains(b.Label, "miniBUDE") && strings.Contains(b.Label, "Stack") {
			found = true
			if b.Value < 0.75 || b.Value > 0.85 {
				t.Errorf("miniBUDE stack ratio = %v", b.Value)
			}
			if b.Expected < 0.85 || b.Expected > 0.91 {
				t.Errorf("miniBUDE expectation = %v", b.Expected)
			}
		}
	}
	if !found {
		t.Error("Figure 2 missing miniBUDE per-stack bar")
	}
	// miniQMC bars carry no expectation (no microbenchmark captures its
	// CPU congestion); the other three mini-apps all do.
	expectations := func(c *report.BarChart) {
		t.Helper()
		qmc := 0
		for _, b := range c.Bars {
			switch {
			case strings.Contains(b.Label, "miniQMC"):
				qmc++
				if b.Expected != 0 {
					t.Errorf("%s: miniQMC bar %q has expectation %v", c.Title, b.Label, b.Expected)
				}
			case b.Expected <= 0:
				t.Errorf("%s: bar %q has no expectation", c.Title, b.Label)
			}
		}
		if qmc == 0 {
			t.Errorf("%s: no miniQMC bar", c.Title)
		}
	}
	expectations(f2)
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		f3, err := s.Figure3(sys)
		if err != nil {
			t.Fatal(err)
		}
		if len(f3.Bars) == 0 {
			t.Error("Figure 3 empty")
		}
		expectations(f3)
		f4, err := s.Figure4(sys)
		if err != nil {
			t.Fatal(err)
		}
		if len(f4.Bars) == 0 {
			t.Error("Figure 4 empty")
		}
		expectations(f4)
	}
}

// The headline fidelity summary: every regenerated number within 15% of
// publication, and the bulk within 10%.
func TestExperimentsFidelity(t *testing.T) {
	s := NewStudy()
	exps, err := s.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) < 120 {
		t.Fatalf("only %d experiments; expected the full table coverage", len(exps))
	}
	over10 := 0
	for _, e := range exps {
		if e.RelErr() > 0.15 {
			t.Errorf("%s %s: paper %.3g, got %.3g (%.1f%%)", e.ID, e.Name, e.Paper, e.Measured, e.RelErr()*100)
		}
		if e.RelErr() > 0.10 {
			over10++
		}
	}
	if float64(over10) > 0.05*float64(len(exps)) {
		t.Errorf("%d of %d experiments exceed 10%% error", over10, len(exps))
	}
}

func TestWriteExperimentsMarkdown(t *testing.T) {
	s := NewStudy()
	var b strings.Builder
	if err := s.WriteExperimentsMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"# EXPERIMENTS", "| T2 |", "| T3 |", "| F1 |", "| T6 |", "Worst relative error"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}
