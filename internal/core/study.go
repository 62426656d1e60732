// Package core assembles the full reproduction study: it regenerates
// every table (I–VI) and figure (1–4) of the paper from the simulated
// systems, attaches the published values for comparison, and emits the
// EXPERIMENTS.md fidelity report. It is the top-level API the command
// line tools and examples drive.
//
// Since the workload-registry refactor the Study owns no simulation code
// of its own: every number flows through the workload registry
// (internal/workload) and the memoizing parallel runner
// (internal/runner), so each (system, workload) cell is simulated exactly
// once however many tables and figures view it, and NewParallelStudy
// fans independent cells across a worker pool with bit-identical output.
package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"pvcsim/internal/expected"
	"pvcsim/internal/paper"
	"pvcsim/internal/report"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
	"pvcsim/internal/workload"
)

// Study orchestrates the reproduction across the four systems.
type Study struct {
	reg       *workload.Registry
	runner    *runner.Runner
	predictor *expected.Predictor
}

// NewStudy builds a serial study over the standard systems.
func NewStudy() *Study { return NewParallelStudy(1) }

// NewParallelStudy builds a study whose runner fans independent
// (system × workload) cells across jobs workers; jobs <= 0 selects
// runtime.NumCPU(). Output is bit-identical to the serial study.
func NewParallelStudy(jobs int) *Study {
	return &Study{
		reg:       sweep.DefaultRegistry(),
		runner:    runner.New(jobs),
		predictor: expected.NewPredictor(),
	}
}

// Registry exposes the workload registry backing the study.
func (s *Study) Registry() *workload.Registry { return s.reg }

// Runner exposes the memoizing executor backing the study.
func (s *Study) Runner() *runner.Runner { return s.runner }

// Result fetches one registered (workload, system) cell through the
// memoizing runner.
func (s *Study) Result(name string, sys topology.System) (workload.Result, error) {
	w, ok := s.reg.Get(name)
	if !ok {
		return workload.Result{}, fmt.Errorf("core: workload %q not registered", name)
	}
	return s.runner.RunOne(context.Background(), sys, w)
}

// tableCells lists every cell the paper's tables and figures consume —
// the prefetch set of WriteAllArtifacts and the determinism tests.
func (s *Study) tableCells() []runner.Cell {
	var cells []runner.Cell
	add := func(name string, systems ...topology.System) {
		w, ok := s.reg.Get(name)
		if !ok {
			return
		}
		for _, sys := range systems {
			cells = append(cells, runner.Cell{System: sys, Workload: w})
		}
	}
	for _, m := range paper.TableIIMetrics() {
		add(workload.MetricSlug(m), topology.Aurora, topology.Dawn)
	}
	add("p2p", topology.Aurora, topology.Dawn)
	add("lats", topology.AllSystems()...)
	for _, w := range paper.Workloads() {
		if name, ok := workload.FOMName(w); ok {
			add(name, topology.AllSystems()...)
		}
	}
	return cells
}

// Prefetch simulates every cell the tables and figures need, in parallel
// across the runner's workers. Subsequent table/figure calls are pure
// cache-served views. The first error (if any) is returned.
func (s *Study) Prefetch(ctx context.Context) error {
	for _, res := range s.runner.Run(ctx, s.tableCells()) {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// TableI renders the microbenchmark catalogue.
func (s *Study) TableI() *report.Table {
	t := report.NewTable("Table I: Summary of microbenchmarks", "Benchmark", "Programming model", "Description")
	t.AddRow("Peak Compute", "OpenMP", "Chain of FMA to measure FLOPS")
	t.AddRow("Device Memory Bandwidth", "OpenMP", "Triad used for HBM bandwidth")
	t.AddRow("Host to Device Transfer", "SYCL", "PCIe data transfer bandwidth")
	t.AddRow("Device to Device Transfer", "SYCL+MPI", "Bandwidth between two ranks (stacks / GPUs)")
	t.AddRow("GEMM", "SYCL (oneMKL)", "DGEMM, SGEMM, HGEMM, BF16, TF32, I8")
	t.AddRow("FFT", "SYCL (oneMKL)", "Forward and backward C2C transforms")
	t.AddRow("Lats", "SYCL/CUDA/HIP", "Memory hierarchy access latency (pointer chase)")
	return t
}

// metricRow fetches the three Table II cells of one metric for a system.
func (s *Study) metricRow(sys topology.System, m paper.Metric) ([3]float64, error) {
	res, err := s.Result(workload.MetricSlug(m), sys)
	if err != nil {
		return [3]float64{}, err
	}
	var row [3]float64
	for i, sc := range workload.TableIIScopes {
		v, ok := res.Lookup(string(m), sc.String())
		if !ok {
			return row, fmt.Errorf("core: %s missing %s cell for %s", m, sc, sys)
		}
		row[i] = v.Value
	}
	return row, nil
}

// TableII regenerates Table II for one PVC system, with the published
// values alongside.
func (s *Study) TableII(sys topology.System) (*report.Table, error) {
	pub := paper.TableII[sys]
	t := report.NewTable(
		fmt.Sprintf("Table II (%s): microbenchmarks [TFlop/s, TB/s or GB/s as in the paper]", sys),
		"Metric", "One Stack", "One PVC", "Full Node", "Paper (stack/PVC/node)")
	for _, m := range paper.TableIIMetrics() {
		row, err := s.metricRow(sys, m)
		if err != nil {
			return nil, err
		}
		p := pub[m]
		t.AddRow(string(m), report.Num(row[0]), report.Num(row[1]), report.Num(row[2]),
			fmt.Sprintf("%s / %s / %s", report.Num(p[0]), report.Num(p[1]), report.Num(p[2])))
	}
	return t, nil
}

// p2pRows lists the Table III rows in paper order; the names double as
// the workload result's metric names.
var p2pRows = []string{"Local Uni", "Local Bidir", "Remote Uni", "Remote Bidir"}

// p2pRow fetches one Table III (one pair, all pairs) row for a system.
func (s *Study) p2pRow(sys topology.System, name string) (one, all float64, err error) {
	res, err := s.Result("p2p", sys)
	if err != nil {
		return 0, 0, err
	}
	vOne, ok1 := res.Lookup(name, "One Pair")
	vAll, ok2 := res.Lookup(name, "All Pairs")
	if !ok1 || !ok2 {
		return 0, 0, fmt.Errorf("core: p2p row %q missing for %s", name, sys)
	}
	return vOne.Value, vAll.Value, nil
}

// TableIII regenerates the point-to-point table for both PVC systems.
func (s *Study) TableIII() (*report.Table, error) {
	t := report.NewTable("Table III: stack-to-stack point-to-point [GB/s]",
		"System", "Row", "One Pair", "All Pairs", "Paper (one/all)")
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		pub := paper.TableIII[sys]
		pubRows := map[string][2]float64{
			"Local Uni":    {pub.LocalUniOne, pub.LocalUniAll},
			"Local Bidir":  {pub.LocalBidirOne, pub.LocalBidirAll},
			"Remote Uni":   {pub.RemoteUniOne, pub.RemoteUniAll},
			"Remote Bidir": {pub.RemoteBidirOne, pub.RemoteBidirAll},
		}
		for _, name := range p2pRows {
			one, all, err := s.p2pRow(sys, name)
			if err != nil {
				return nil, err
			}
			p := pubRows[name]
			t.AddRow(sys.String(), name, report.Num(one), report.Num(all),
				fmt.Sprintf("%s / %s", report.Num(p[0]), report.Num(p[1])))
		}
	}
	return t, nil
}

// TableIV renders the reference characteristics.
func (s *Study) TableIV() *report.Table {
	t := report.NewTable("Table IV: H100 / MI250 / MI250x-GCD references",
		"Device", "FP32 peak", "FP64 peak", "SGEMM", "DGEMM", "Mem BW", "PCIe BW", "GCD-GCD")
	names := make([]string, 0, len(paper.TableIV))
	for n := range paper.TableIV {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := paper.TableIV[n]
		t.AddRow(n, report.Num(r.FP32PeakTF), report.Num(r.FP64PeakTF), report.Num(r.SGEMMTF),
			report.Num(r.DGEMMTF), report.Num(r.MemBWTBs), report.Num(r.PCIeGBs), report.Num(r.GCD2GCDGBs))
	}
	return t
}

// TableV renders the workload characteristics.
func (s *Study) TableV() *report.Table {
	t := report.NewTable("Table V: mini-app and application characteristics",
		"Workload", "Domain", "Bound", "Scaling", "FOM unit")
	for _, w := range paper.Workloads() {
		c := paper.TableV[w]
		t.AddRow(string(w), c.Domain, c.Bound, c.Scaling, c.FOMUnit)
	}
	return t
}

// FOM evaluates one workload × system × granularity cell through the
// registry, mirroring the coverage of Table VI (cells the paper leaves
// blank return ok=false; configurations that failed in the paper —
// mini-GAMESS on MI250 — are blank as published).
func (s *Study) FOM(w paper.Workload, sys topology.System, g expected.Granularity) (float64, bool, error) {
	name, known := workload.FOMName(w)
	if !known {
		return 0, false, fmt.Errorf("core: unknown workload %q", w)
	}
	res, err := s.Result(name, sys)
	if err != nil {
		return 0, false, err
	}
	v, ok := res.Lookup(string(w), g.String())
	if !ok {
		return 0, false, nil
	}
	return v.Value, true, nil
}

// TableVI regenerates the figure-of-merit table with published values.
func (s *Study) TableVI() (*report.Table, error) {
	t := report.NewTable("Table VI: figures of merit (units per Table V)",
		"Workload", "System", "One Stack", "One GPU", "Full Node", "Paper (stack/GPU/node)")
	for _, w := range paper.Workloads() {
		for _, sys := range topology.AllSystems() {
			pub, published := paper.TableVI[w][sys]
			if !published {
				continue
			}
			var cells [3]string
			for i, g := range []expected.Granularity{expected.PerStack, expected.PerGPU, expected.PerNode} {
				// Only evaluate cells the paper populates.
				var want float64
				switch g {
				case expected.PerStack:
					want = pub.OneStack
				case expected.PerGPU:
					want = pub.OneGPU
				default:
					want = pub.FullNode
				}
				if want == 0 {
					cells[i] = "-"
					continue
				}
				v, ok, err := s.FOM(w, sys, g)
				if err != nil {
					return nil, err
				}
				if !ok {
					cells[i] = "-"
					continue
				}
				cells[i] = report.Num(v)
			}
			t.AddRow(string(w), sys.String(), cells[0], cells[1], cells[2],
				fmt.Sprintf("%s / %s / %s", report.Num(pub.OneStack), report.Num(pub.OneGPU), report.Num(pub.FullNode)))
		}
	}
	return t, nil
}

// latsResult fetches the Figure 1 ladder for a system.
func (s *Study) latsResult(sys topology.System) (workload.Result, error) {
	return s.Result("lats", sys)
}

// Figure1 runs the memory-latency ladder from lo to hi on every system
// as one batch through the study's runner and returns each system's
// latency points, in topology.AllSystems order. The default range,
// microbench.LatsDefaultLo to LatsDefaultHi, is the registry's lats cell.
func (s *Study) Figure1(lo, hi units.Bytes) ([][]workload.Value, error) {
	w := workload.NewLatsCell(lo, hi)
	var cells []runner.Cell
	for _, sys := range topology.AllSystems() {
		cells = append(cells, runner.Cell{System: sys, Workload: w})
	}
	var ladders [][]workload.Value
	for _, res := range s.runner.Run(context.Background(), cells) {
		if res.Err != nil {
			return nil, res.Err
		}
		ladders = append(ladders, res.Result.Select("latency"))
	}
	return ladders, nil
}

// figure1Series turns the ladders Figure1 returns into one plot series
// per system.
func figure1Series(ladders [][]workload.Value) []*report.Series {
	var out []*report.Series
	for i, sys := range topology.AllSystems() {
		ser := &report.Series{Name: sys.String(), XLabel: "footprint [bytes]", YLabel: "latency [cycles]"}
		for _, v := range ladders[i] {
			ser.Add(v.X, v.Value)
		}
		out = append(out, ser)
	}
	return out
}

// Figure1CSV writes Figure 1 ladders as CSV: the footprint column, then
// one latency column per system.
func Figure1CSV(w io.Writer, ladders [][]workload.Value) error {
	return report.CSVMulti(w, "footprint_bytes", figure1Series(ladders)...)
}

// Figure1SVG writes Figure 1 ladders as a standalone SVG plot.
func Figure1SVG(w io.Writer, ladders [][]workload.Value) error {
	plot := report.NewSVGPlot("Figure 1: Memory Latency (coalesced pointer chase)",
		"footprint [bytes, log2]", "latency [cycles]")
	plot.LogX = true
	plot.Series = figure1Series(ladders)
	return plot.Render(w)
}

// latsPlateau returns the latency plateau of one hierarchy level.
func (s *Study) latsPlateau(sys topology.System, level string) (float64, error) {
	res, err := s.latsResult(sys)
	if err != nil {
		return 0, err
	}
	v, ok := res.Lookup("plateau", level)
	if !ok {
		return 0, fmt.Errorf("core: no %s plateau for %s", level, sys)
	}
	return v.Value, nil
}

// figureGrans lists the comparison granularities of Figures 2–4.
var figureGrans = []expected.Granularity{expected.PerStack, expected.PerGPU, expected.PerNode}

// relFigure builds one relative-FOM chart: sysA at each granularity
// relative to sysB at refGran(g).
func (s *Study) relFigure(title string, sysA, sysB topology.System,
	refGran func(expected.Granularity) expected.Granularity) (*report.BarChart, error) {
	chart := report.NewBarChart(title)
	for _, w := range []paper.Workload{paper.MiniBUDE, paper.CloverLeaf, paper.MiniQMC, paper.MiniGAMESS} {
		for _, g := range figureGrans {
			gB := refGran(g)
			a, okA, err := s.FOM(w, sysA, g)
			if err != nil {
				return nil, err
			}
			b, okB, err := s.FOM(w, sysB, gB)
			if err != nil {
				return nil, err
			}
			if !okA || !okB || b == 0 {
				continue
			}
			exp, hasExp := s.predictor.Ratio(w, sysA, g, sysB, gB)
			label := fmt.Sprintf("%s %s", w, g)
			expVal := 0.0
			if hasExp {
				expVal = exp
			}
			chart.Add(label, a/b, expVal)
		}
	}
	return chart, nil
}

// Figure2 builds the Aurora-relative-to-Dawn chart.
func (s *Study) Figure2() (*report.BarChart, error) {
	return s.relFigure("Figure 2: FOMs on Aurora relative to Dawn ('|' = expected)",
		topology.Aurora, topology.Dawn, func(g expected.Granularity) expected.Granularity { return g })
}

// Figure3 builds the PVC-systems-relative-to-H100 chart for one PVC
// system. Per-stack entries are omitted as in the paper (a stack is not
// compared to a whole H100); per-GPU compares one PVC to one H100.
func (s *Study) Figure3(sys topology.System) (*report.BarChart, error) {
	return s.relFigure(fmt.Sprintf("Figure 3: FOMs on %s relative to JLSE-H100 ('|' = expected)", sys),
		sys, topology.JLSEH100, func(g expected.Granularity) expected.Granularity {
			if g == expected.PerStack {
				return expected.PerGPU // one stack vs one H100
			}
			return g
		})
}

// Figure4 builds the PVC-systems-relative-to-MI250 chart: one stack vs
// one GCD, one GPU vs one MI250, node vs node.
func (s *Study) Figure4(sys topology.System) (*report.BarChart, error) {
	return s.relFigure(fmt.Sprintf("Figure 4: FOMs on %s relative to JLSE-MI250 ('|' = expected)", sys),
		sys, topology.JLSEMI250, func(g expected.Granularity) expected.Granularity { return g })
}

// Experiment is one paper-vs-measured comparison for EXPERIMENTS.md.
type Experiment struct {
	ID       string
	Name     string
	Paper    float64
	Measured float64
}

// RelErr returns the relative error.
func (e Experiment) RelErr() float64 {
	if e.Paper == 0 {
		return 0
	}
	return math.Abs(e.Measured-e.Paper) / math.Abs(e.Paper)
}

// Experiments regenerates every published number and pairs it with the
// measured value.
func (s *Study) Experiments() ([]Experiment, error) {
	var out []Experiment
	// Table II.
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		for _, m := range paper.TableIIMetrics() {
			row, err := s.metricRow(sys, m)
			if err != nil {
				return nil, err
			}
			for i, scope := range []paper.Scope{paper.OneStack, paper.OnePVC, paper.FullNode} {
				out = append(out, Experiment{
					ID:       "T2",
					Name:     fmt.Sprintf("%s %s (%s)", sys, m, scope),
					Paper:    paper.TableII[sys][m][i],
					Measured: row[i],
				})
			}
		}
	}
	// Table III.
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		pub := paper.TableIII[sys]
		pubRows := map[string][2]float64{
			"Local Uni":    {pub.LocalUniOne, pub.LocalUniAll},
			"Local Bidir":  {pub.LocalBidirOne, pub.LocalBidirAll},
			"Remote Uni":   {pub.RemoteUniOne, pub.RemoteUniAll},
			"Remote Bidir": {pub.RemoteBidirOne, pub.RemoteBidirAll},
		}
		for _, name := range p2pRows {
			one, all, err := s.p2pRow(sys, name)
			if err != nil {
				return nil, err
			}
			p := pubRows[name]
			add := func(suffix string, g, pv float64) {
				if pv == 0 {
					return
				}
				out = append(out, Experiment{
					ID:    "T3",
					Name:  fmt.Sprintf("%s %s %s", sys, strings.ToLower(name), suffix),
					Paper: pv, Measured: g,
				})
			}
			add("one", one, p[0])
			add("all", all, p[1])
		}
	}
	// Figure 1 ratios, innermost level first. Figure1Ratios is a map, so
	// ranging over it directly would shuffle the report's row order from
	// run to run.
	for _, level := range []string{"L1", "L2", "HBM"} {
		ratios := paper.Figure1Ratios[level]
		for _, other := range []struct {
			name string
			sys  topology.System
		}{{"H100", topology.JLSEH100}, {"MI250", topology.JLSEMI250}} {
			pvcPlateau, err := s.latsPlateau(topology.Aurora, level)
			if err != nil {
				return nil, err
			}
			otherPlateau, err := s.latsPlateau(other.sys, level)
			if err != nil {
				return nil, err
			}
			out = append(out, Experiment{
				ID:       "F1",
				Name:     fmt.Sprintf("PVC/%s %s latency ratio", other.name, level),
				Paper:    ratios[other.name],
				Measured: pvcPlateau / otherPlateau,
			})
		}
	}
	// Table VI.
	for _, w := range paper.Workloads() {
		for _, sys := range topology.AllSystems() {
			pub, ok := paper.TableVI[w][sys]
			if !ok {
				continue
			}
			cells := []struct {
				g    expected.Granularity
				want float64
			}{
				{expected.PerStack, pub.OneStack},
				{expected.PerGPU, pub.OneGPU},
				{expected.PerNode, pub.FullNode},
			}
			for _, c := range cells {
				if c.want == 0 {
					continue
				}
				v, okV, err := s.FOM(w, sys, c.g)
				if err != nil {
					return nil, err
				}
				if !okV {
					continue
				}
				out = append(out, Experiment{
					ID:       "T6",
					Name:     fmt.Sprintf("%s %s (%s)", w, sys, c.g),
					Paper:    c.want,
					Measured: v,
				})
			}
		}
	}
	return out, nil
}

// WriteExperimentsMarkdown writes the EXPERIMENTS.md fidelity report.
func (s *Study) WriteExperimentsMarkdown(w io.Writer) error {
	exps, err := s.Experiments()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# EXPERIMENTS — paper vs. reproduced")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Every published number of the paper regenerated by the simulator.")
	fmt.Fprintln(w, "IDs: T2/T3/T6 = Tables II/III/VI, F1 = Figure 1 latency ratios.")
	fmt.Fprintln(w, "Figures 2-4 derive from the T6 rows (ratios) plus the expectation")
	fmt.Fprintln(w, "bars validated in internal/expected.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The 25 paper cells behind these rows are no longer hand-enumerated:")
	fmt.Fprintln(w, "they are expanded from the declarative sweep families of internal/sweep")
	fmt.Fprintln(w, "(see DESIGN.md \"Cluster model & sweep engine\"), and the expansion is")
	fmt.Fprintln(w, "regression-tested to reproduce the original registry cell for cell.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| ID | Experiment | Paper | Reproduced | Rel. err |")
	fmt.Fprintln(w, "|----|------------|-------|------------|----------|")
	worst := 0.0
	for _, e := range exps {
		if e.RelErr() > worst {
			worst = e.RelErr()
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %.1f%% |\n",
			e.ID, e.Name, report.Num(e.Paper), report.Num(e.Measured), e.RelErr()*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Comparisons: %d. Worst relative error: %.1f%%.\n", len(exps), worst*100)
	return nil
}
