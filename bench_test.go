// Package pvcsim's root benchmark harness: one testing.B benchmark per
// paper table and figure (regenerating its rows each iteration), plus
// real host-kernel throughput benches and the ablation benches called out
// in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package pvcsim

import (
	"context"
	"io"
	"testing"

	"pvcsim/internal/apps/hacc"
	"pvcsim/internal/apps/openmc"
	"pvcsim/internal/core"
	"pvcsim/internal/expected"
	"pvcsim/internal/hw"
	"pvcsim/internal/kernels"
	"pvcsim/internal/mem"
	"pvcsim/internal/microbench"
	"pvcsim/internal/miniapps/cloverleaf"
	"pvcsim/internal/miniapps/miniqmc"
	"pvcsim/internal/obs"
	"pvcsim/internal/paper"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
	"pvcsim/internal/wallprof"
	"pvcsim/internal/workload"
)

// benchCells runs a fixed cell set through a fresh runner each iteration
// (a fresh runner so the memo cache never hides the simulation cost).
func benchCells(b *testing.B, jobs int, cells []runner.Cell) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range runner.New(jobs).Run(ctx, cells) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// registryCells resolves registry workloads by name into the cells over
// the given systems.
func registryCells(b *testing.B, systems []topology.System, names ...string) []runner.Cell {
	b.Helper()
	reg := sweep.DefaultRegistry()
	var cells []runner.Cell
	for _, name := range names {
		w, ok := reg.Get(name)
		if !ok {
			b.Fatalf("workload %q not registered", name)
		}
		for _, sys := range systems {
			cells = append(cells, runner.Cell{System: sys, Workload: w})
		}
	}
	return cells
}

var pvcPair = []topology.System{topology.Aurora, topology.Dawn}

// --- Table II: one bench per microbenchmark family, regenerating the
// Aurora and Dawn rows through the registry. ---

func benchTableIIMetric(b *testing.B, metrics ...paper.Metric) {
	b.Helper()
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = workload.MetricSlug(m)
	}
	benchCells(b, 1, registryCells(b, pvcPair, names...))
}

func BenchmarkTableII_PeakFlops(b *testing.B) {
	benchTableIIMetric(b, paper.FP64Peak, paper.FP32Peak)
}

func BenchmarkTableII_Triad(b *testing.B) {
	benchTableIIMetric(b, paper.TriadBW)
}

func BenchmarkTableII_PCIe(b *testing.B) {
	benchTableIIMetric(b, paper.PCIeH2D, paper.PCIeD2H, paper.PCIeBidir)
}

func BenchmarkTableII_GEMM(b *testing.B) {
	benchTableIIMetric(b, paper.DGEMM, paper.SGEMM, paper.HGEMM, paper.BF16GEMM, paper.TF32GEMM, paper.I8GEMM)
}

func BenchmarkTableII_FFT(b *testing.B) {
	benchTableIIMetric(b, paper.FFT1D, paper.FFT2D)
}

// --- Table III ---

func BenchmarkTableIII_P2P(b *testing.B) {
	benchCells(b, 1, registryCells(b, pvcPair, "p2p"))
}

// --- Table IV: reference characteristics through the device models. ---

func BenchmarkTableIV_References(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		if err := study.TableIV().Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table V ---

func BenchmarkTableV_Characteristics(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		if err := study.TableV().Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table VI: one bench per workload, evaluating every published cell
// through the registry. ---

func benchTableVI(b *testing.B, name string) {
	b.Helper()
	benchCells(b, 1, registryCells(b, topology.AllSystems(), name))
}

func BenchmarkTableVI_MiniBUDE(b *testing.B)   { benchTableVI(b, "minibude") }
func BenchmarkTableVI_CloverLeaf(b *testing.B) { benchTableVI(b, "cloverleaf") }
func BenchmarkTableVI_MiniQMC(b *testing.B)    { benchTableVI(b, "miniqmc") }
func BenchmarkTableVI_RIMP2(b *testing.B)      { benchTableVI(b, "minigamess") }
func BenchmarkTableVI_OpenMC(b *testing.B)     { benchTableVI(b, "openmc") }
func BenchmarkTableVI_HACC(b *testing.B)       { benchTableVI(b, "hacc") }

// --- Wall-clock self-profiling overhead (DESIGN.md §13): the same
// engine-driving cells with the probe hooks left nil vs a live wallprof
// collector. The Nil variant is the cost every simulation now pays for
// the instrumentation points (one pointer compare per hook site — the
// zero-alloc claim is pinned by TestWallprobeNilPathZeroAlloc, which
// `make bench-check` runs); the delta to Enabled is the price of
// actually profiling. clover-scaling is the subject because it genuinely
// drives the event engine — the Table VI FOM workloads are analytic and
// would never reach a burst hook. ---

func benchWallprofOverhead(b *testing.B, enabled bool) {
	b.Helper()
	cells := registryCells(b, pvcPair, "clover-scaling")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := runner.New(1)
		if enabled {
			r.ProfileWall(wallprof.New())
		}
		for _, res := range r.Run(ctx, cells) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

func BenchmarkWallprofOverheadNil(b *testing.B)     { benchWallprofOverhead(b, false) }
func BenchmarkWallprofOverheadEnabled(b *testing.B) { benchWallprofOverhead(b, true) }

// --- Exports: the three files written beside a paper artifact run
// (metrics JSON, Chrome trace, bound-attribution profile), timed into
// io.Discard over one report of the full artifact run with obs on, as
// perfbench's paper-artifacts op builds it. Simulation and rendering
// happen once, before the timer. ---

func BenchmarkExports_PaperReport(b *testing.B) {
	st := core.NewStudy()
	col := obs.NewCollector()
	st.Runner().Observe(col)
	if err := st.Prefetch(context.Background()); err != nil {
		b.Fatal(err)
	}
	if err := st.WriteAllArtifacts(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	rep := col.Report()
	for _, bc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"ChromeTrace", rep.WriteChromeTrace},
		{"Metrics", rep.WriteMetrics},
		{"Profile", func(w io.Writer) error { return prof.Build(rep).WriteJSON(w) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Registry: the full study cell set, serial vs parallel, plus the
// memo-cache hit path. ---

func BenchmarkRegistry_AllSerial(b *testing.B) {
	benchCells(b, 1, runner.Cells(sweep.DefaultRegistry().Workloads()))
}

func BenchmarkRegistry_AllParallel(b *testing.B) {
	benchCells(b, 0, runner.Cells(sweep.DefaultRegistry().Workloads()))
}

func BenchmarkRegistry_CacheHit(b *testing.B) {
	reg := sweep.DefaultRegistry()
	w, ok := reg.Get("dgemm")
	if !ok {
		b.Fatal("dgemm not registered")
	}
	r := runner.New(1)
	ctx := context.Background()
	if _, err := r.RunOne(ctx, topology.Aurora, w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunOne(ctx, topology.Aurora, w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures ---

func BenchmarkFigure1_Lats(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		if ladders, err := study.Figure1(microbench.LatsDefaultLo, microbench.LatsDefaultHi); err != nil || len(ladders) != 4 {
			b.Fatalf("Figure 1: %d ladders, err %v", len(ladders), err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		if _, err := study.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
			if _, err := study.Figure3(sys); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
			if _, err := study.Figure4(sys); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Real host kernels: actual throughput of the benchmark codes. ---

func BenchmarkKernel_Triad(b *testing.B) {
	n := 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range y {
		y[i], z[i] = float64(i), 1.0
	}
	b.SetBytes(int64(n) * kernels.TriadBytesPerElem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kernels.Triad(x, y, z, 3.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_FMAChain(b *testing.B) {
	xs := make([]float64, 1024)
	b.ResetTimer()
	var flops int64
	for i := 0; i < b.N; i++ {
		flops = kernels.FMAChain64(xs, 0.999999, 1e-9, kernels.FMAChainDepth)
	}
	b.ReportMetric(float64(flops*int64(b.N))/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkKernel_DGEMM256(b *testing.B) {
	const n = 256
	a := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kernels.MatMulParallel(n, n, n, a, a, c, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(kernels.GEMMFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkKernel_FFT4096(b *testing.B) {
	p, err := kernels.NewFFTPlan(4096)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%13), float64(i%7))
	}
	out := make([]complex128, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Forward(out, x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(kernels.FFTFlops(4096, false)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkKernel_PointerChase(b *testing.B) {
	r, err := mem.NewRing(1<<15, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sink := int32(0)
	for i := 0; i < b.N; i++ {
		sink ^= r.Walk(1 << 15)
	}
	_ = sink
}

func BenchmarkKernel_CloverLeafStep(b *testing.B) {
	s, err := cloverleaf.Sod(256, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0)
	}
	b.ReportMetric(float64(256*64*b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkKernel_Transport(b *testing.B) {
	mat := openmc.TwoGroupFuel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openmc.RunSlab(mat, 50, 1000, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds()/1e3, "kparticles/s")
}

// --- Ablations (DESIGN.md §5): design choices isolated. ---

// Ablation: the duplex constraint. Without it (DuplexFactor = 2) the
// bidirectional PCIe benchmark would report ~2× the unidirectional
// number instead of the measured 1.4×.
func BenchmarkAblation_PCIeDuplexLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		real := microbench.NewSuite(topology.NewAurora())
		bidir, err := real.PCIe(microbench.DirBidir, 1)
		if err != nil {
			b.Fatal(err)
		}
		ideal := topology.NewAurora()
		ideal.GPU.HostLink.DuplexFactor = 2.0
		suite := microbench.NewSuite(ideal)
		bidirIdeal, err := suite.PCIe(microbench.DirBidir, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !(bidirIdeal > bidir*1.3) {
			b.Fatalf("duplex ablation has no effect: %v vs %v", bidirIdeal, bidir)
		}
	}
}

// Ablation: host-side D2H pool. Without it, full-node D2H rises to the
// sum of the per-card links (~324 GB/s, like H2D) instead of the
// measured 264 GB/s host-sink limit.
func BenchmarkAblation_HostPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		real := microbench.NewSuite(topology.NewAurora())
		d2h, err := real.PCIe(microbench.DirD2H, 12)
		if err != nil {
			b.Fatal(err)
		}
		unlimited := topology.NewAurora()
		unlimited.HostD2HPool = 10 * units.TBps
		unlimited.HostBidirPool = 10 * units.TBps
		suite := microbench.NewSuite(unlimited)
		d2hIdeal, err := suite.PCIe(microbench.DirD2H, 12)
		if err != nil {
			b.Fatal(err)
		}
		if !(d2hIdeal > d2h*1.15) {
			b.Fatalf("host pool ablation has no effect: %v vs %v", d2hIdeal, d2h)
		}
	}
}

// Ablation: TDP throttling. At a fixed 1.6 GHz the FP64 peak would be
// ~23 TFlop/s per stack instead of the measured 17 — the FP32:FP64 ratio
// collapses to 1.0.
func BenchmarkAblation_TDPThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		uncapped := topology.NewAurora()
		uncapped.GPU.PowerCapW = 5000
		s := microbench.NewSuite(uncapped)
		fp64 := s.PeakFlops(microbench.FP64Chain, 1)
		fp32 := s.PeakFlops(microbench.FP32Chain, 1)
		if fp64/fp32 < 0.99 {
			b.Fatalf("uncapped FP64/FP32 = %v, want ~1.0", fp64/fp32)
		}
		capped := microbench.NewSuite(topology.NewAurora())
		if r := capped.PeakFlops(microbench.FP32Chain, 1) / capped.PeakFlops(microbench.FP64Chain, 1); r < 1.25 {
			b.Fatalf("capped FP32/FP64 = %v, want ~1.33", r)
		}
	}
}

// Ablation: cache replacement policy. Strict LRU thrashes the cyclic
// chase completely; random replacement retains the analytic hit rate.
func BenchmarkAblation_CacheReplacement(b *testing.B) {
	node := topology.NewAurora()
	h := mem.NewHierarchy(&node.GPU.Sub)
	for i := 0; i < b.N; i++ {
		ring, err := mem.NewRing(16384, 64, 1) // 1 MiB = 2× L1
		if err != nil {
			b.Fatal(err)
		}
		lru := mem.SimulateChase(ring, mem.NewCacheSim(h, 16, mem.PolicyLRU), 1)
		rnd := mem.SimulateChase(ring, mem.NewCacheSim(h, 16, mem.PolicyRandom), 1)
		if !(rnd < lru) {
			b.Fatalf("random (%v) should beat LRU (%v) on cyclic chase", rnd, lru)
		}
	}
}

// Ablation: miniQMC CPU-congestion term. Removing it (comparing against
// linear scaling of the one-stack FOM) overpredicts the Aurora node by
// >2×, which is exactly the gap the paper attributes to congestion.
func BenchmarkAblation_QMCCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one, err := miniqmc.FOM(topology.Aurora, 1)
		if err != nil {
			b.Fatal(err)
		}
		full, err := miniqmc.FOM(topology.Aurora, 12)
		if err != nil {
			b.Fatal(err)
		}
		linear := 12 * one
		if !(linear > full*2) {
			b.Fatalf("congestion ablation too weak: linear %v vs modeled %v", linear, full)
		}
	}
}

// Ablation: the L2-capacity mechanism in OpenMC. Shrinking PVC's 192 MiB
// L2 to H100's 50 MiB erases most of its latency advantage.
func BenchmarkAblation_OpenMCL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		realLat := openmc.AccessLatencyNs(topology.Aurora)
		shrunk := topology.NewAurora()
		shrunk.GPU.Sub.Caches[1].Capacity = 50 * units.MB
		h := mem.NewHierarchy(&shrunk.GPU.Sub)
		cycles := h.AvgLatencyCycles(openmc.XSWorkingSet)
		shrunkLat := cycles / 1.6 // ns at 1.6 GHz
		if !(shrunkLat > realLat*1.2) {
			b.Fatalf("L2 ablation too weak: %v vs %v ns", shrunkLat, realLat)
		}
	}
}

// Ablation: the expectation bars themselves — Figure 2's measured ratios
// against the prediction, the paper's central claim that microbenchmarks
// predict mini-app ratios.
func BenchmarkAblation_BlackBarAccuracy(b *testing.B) {
	study := core.NewStudy()
	for i := 0; i < b.N; i++ {
		chart, err := study.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		for _, bar := range chart.Bars {
			if bar.Expected == 0 {
				continue // miniQMC: no bar
			}
			rel := bar.Value/bar.Expected - 1
			if rel < -0.25 || rel > 0.25 {
				b.Fatalf("%s: measured %v vs expected %v", bar.Label, bar.Value, bar.Expected)
			}
		}
	}
}

// Sanity: keep the expected package exercised through the harness too.
func BenchmarkExpected_Predictor(b *testing.B) {
	p := expected.NewPredictor()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Ratio(paper.CloverLeaf, topology.Aurora, expected.PerGPU,
			topology.JLSEH100, expected.PerGPU); !ok {
			b.Fatal("no ratio")
		}
	}
}

// Sanity: governed clocks queried in a tight loop (the hot path of every
// model evaluation).
func BenchmarkPower_GovernedClocks(b *testing.B) {
	suite := microbench.NewSuite(topology.NewAurora())
	for i := 0; i < b.N; i++ {
		if v := suite.PeakFlops(microbench.FP64Chain, 1); v < 16 || v > 18 {
			b.Fatalf("FP64 peak drifted: %v", v)
		}
	}
}

var _ = hw.FP64 // keep hw imported for documentation parity

// --- Extension kernels ---

func BenchmarkKernel_BarnesHut(b *testing.B) {
	s, err := hacc.NewRandomSystem(400, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AccelerationsBH(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_DirectNBody(b *testing.B) {
	s, err := hacc.NewRandomSystem(400, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Accelerations()
	}
}

func BenchmarkKernel_SPHStep(b *testing.B) {
	sys, err := hacc.NewRandomSystem(216, 2)
	if err != nil {
		b.Fatal(err)
	}
	gas, err := hacc.NewGas(sys.Particles, 0.2, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gas.Step(1e-5)
	}
}

func BenchmarkKernel_Eigenvalue(b *testing.B) {
	mat := openmc.TwoGroupFuel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openmc.SolveEigenvalue(openmc.EigenvalueOptions{
			Material: mat, Thickness: 100, Particles: 500, Inactive: 2, Active: 3, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: the message-size sweep behind cmd/pvcbench -sweep.
func BenchmarkExtension_P2PSweep(b *testing.B) {
	s := microbench.NewSuite(topology.NewAurora())
	sizes := []units.Bytes{64 * units.KB, 16 * units.MB}
	for i := 0; i < b.N; i++ {
		if _, err := s.P2PSweep(topology.LocalStack, sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: the registry's energy cell on all four systems, what
// cmd/pvcbench -energy runs.
func BenchmarkExtension_Energy(b *testing.B) {
	benchCells(b, 1, registryCells(b, topology.AllSystems(), "energy"))
}
