// Package perfmodel turns kernel characterizations into device execution
// times and sustained rates on the modeled systems. It combines:
//
//   - first-principles peaks from the hw package (ops/clock × cores),
//   - TDP-governed operating clocks from the power package,
//   - a roofline rule (compute-bound vs memory-bound), and
//   - a calibration table of achieved-efficiency factors anchored to the
//     paper's own measurements and stated derivations (e.g. "DGEMM reaches
//     nearly 80% of the measured peak", "SGEMM reaches nearly 95%").
//
// Every calibrated constant is written next to the measurement that fixes
// it, so the model is auditable against Table II.
package perfmodel

import (
	"fmt"
	"math"

	"pvcsim/internal/hw"
	"pvcsim/internal/mem"
	"pvcsim/internal/obs"
	"pvcsim/internal/power"
	"pvcsim/internal/prof"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Kind classifies a kernel for efficiency lookup.
type Kind int

const (
	// KindPeakFlops is the FMA-chain microbenchmark (≈99% of theoretical).
	KindPeakFlops Kind = iota
	// KindGEMM is a large dense matrix multiply (oneMKL-class).
	KindGEMM
	// KindFFT1D is a batched large 1-D complex transform.
	KindFFT1D
	// KindFFT2D is a large 2-D complex transform.
	KindFFT2D
	// KindStream is a bandwidth-bound streaming kernel (triad).
	KindStream
	// KindCompute is a generic compute kernel with no special tuning.
	KindCompute
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPeakFlops:
		return "peakflops"
	case KindGEMM:
		return "gemm"
	case KindFFT1D:
		return "fft1d"
	case KindFFT2D:
		return "fft2d"
	case KindStream:
		return "stream"
	case KindCompute:
		return "compute"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Variant keys the calibration tables: the PVC calibrations differ
// slightly between the Aurora (56 Xe-Core, 500 W) and Dawn (64 Xe-Core,
// 600 W) configurations, exactly as the measured Table II columns do.
type Variant string

// Known calibration variants.
const (
	VariantAuroraPVC Variant = "aurora-pvc"
	VariantDawnPVC   Variant = "dawn-pvc"
	VariantH100      Variant = "h100"
	VariantMI250     Variant = "mi250"
	VariantMI250X    Variant = "mi250x" // Frontier, §VII future work
)

// VariantOf maps a system to its calibration variant.
func VariantOf(sys topology.System) Variant {
	switch sys {
	case topology.Aurora:
		return VariantAuroraPVC
	case topology.Dawn:
		return VariantDawnPVC
	case topology.JLSEH100:
		return VariantH100
	case topology.Frontier:
		return VariantMI250X
	default:
		return VariantMI250
	}
}

type effKey struct {
	v    Variant
	kind Kind
	prec hw.Precision
}

type scaleKey struct {
	v    Variant
	kind Kind
	fp64 bool
}

// scaleAnchor holds measured parallel efficiencies at two stack counts:
// one full card (2 stacks on PVC/MI250) and the full node.
type scaleAnchor struct {
	atTwo  float64
	atFull float64
}

// Calibration is the table of achieved-efficiency factors and multi-stack
// scaling anchors.
type Calibration struct {
	eff     map[effKey]float64
	defEff  map[Kind]float64
	scaling map[scaleKey]scaleAnchor
}

// defaultCalibration is built once: no method mutates a Calibration, so
// every model shares it.
var defaultCalibration = DefaultCalibration()

// DefaultCalibration returns the table anchored to the paper's Tables II
// and IV. Each entry's comment cites the measurement that fixes it.
func DefaultCalibration() *Calibration {
	c := &Calibration{
		eff:     map[effKey]float64{},
		defEff:  map[Kind]float64{},
		scaling: map[scaleKey]scaleAnchor{},
	}
	// Fallbacks for uncalibrated combinations.
	c.defEff[KindPeakFlops] = 0.99
	c.defEff[KindGEMM] = 0.80
	c.defEff[KindFFT1D] = 0.14
	c.defEff[KindFFT2D] = 0.14
	c.defEff[KindStream] = 1.0 // MemBWSustained is already the triad number
	c.defEff[KindCompute] = 0.70

	set := func(v Variant, k Kind, p hw.Precision, e float64) {
		c.eff[effKey{v, k, p}] = e
	}

	// --- Peak flops: "17 Tflop/s is 99% of the expected theoretical
	// number" (§IV-B1); same factor holds across precisions.
	for _, v := range []Variant{VariantAuroraPVC, VariantDawnPVC, VariantH100, VariantMI250} {
		set(v, KindPeakFlops, hw.FP64, 0.99)
		set(v, KindPeakFlops, hw.FP32, 0.99)
	}

	// --- GEMM, Aurora stack (governed peaks: FP64 17.2, FP32 22.9,
	// XMX FP16/BF16 275, TF32 138, I8 551 T(F)op/s):
	set(VariantAuroraPVC, KindGEMM, hw.FP64, 0.76)  // 13 / 17.2
	set(VariantAuroraPVC, KindGEMM, hw.FP32, 0.92)  // 21 / 22.9
	set(VariantAuroraPVC, KindGEMM, hw.FP16, 0.752) // 207 / 275
	set(VariantAuroraPVC, KindGEMM, hw.BF16, 0.785) // 216 / 275
	set(VariantAuroraPVC, KindGEMM, hw.TF32, 0.777) // 107 / 138
	set(VariantAuroraPVC, KindGEMM, hw.I8, 0.814)   // 448 / 551
	// --- GEMM, Dawn stack (governed peaks: FP64 20.0, FP32 26.2,
	// XMX 320, TF32 160, I8 641):
	set(VariantDawnPVC, KindGEMM, hw.FP64, 0.85) // 17 / 20.0
	set(VariantDawnPVC, KindGEMM, hw.FP32, 0.95) // 25 / 26.2
	set(VariantDawnPVC, KindGEMM, hw.FP16, 0.77) // 246 / 320
	set(VariantDawnPVC, KindGEMM, hw.BF16, 0.79) // 254 / 320
	set(VariantDawnPVC, KindGEMM, hw.TF32, 0.74) // 118 / 160
	set(VariantDawnPVC, KindGEMM, hw.I8, 0.82)   // 525 / 641
	// --- GEMM references (Table IV / §IV-B5): MI250x GCD DGEMM reaches
	// 50% of the 48 TFlop/s matrix peak; SGEMM 33.8 of 45.3.
	set(VariantMI250, KindGEMM, hw.FP64, 0.53) // 24.1 / 45.3 (GCD matrix peak)
	set(VariantMI250, KindGEMM, hw.FP32, 0.75) // 33.8 / 45.3
	set(VariantH100, KindGEMM, hw.FP64, 0.85)
	set(VariantH100, KindGEMM, hw.FP32, 0.85)
	// MI250X on Frontier (Table IV measured vs the 48 TFlop/s per-GCD
	// matrix peak: "the efficiency is lower (50% versus GEMM on PVC is
	// 80%)").
	set(VariantMI250X, KindGEMM, hw.FP64, 0.503) // 24.1 / 47.9
	set(VariantMI250X, KindGEMM, hw.FP32, 0.706) // 33.8 / 47.9

	// --- FFT (PVC, single-precision C2C; fraction of governed FP32
	// vector peak — oneMKL FFT is far from compute peak on every GPU):
	set(VariantAuroraPVC, KindFFT1D, hw.FP32, 0.135) // 3.1 / 22.9
	set(VariantAuroraPVC, KindFFT2D, hw.FP32, 0.148) // 3.4 / 22.9
	set(VariantDawnPVC, KindFFT1D, hw.FP32, 0.137)   // 3.6 / 26.2
	set(VariantDawnPVC, KindFFT2D, hw.FP32, 0.137)   // 3.6 / 26.2

	// --- Scaling anchors: measured parallel efficiency at (2 stacks,
	// full node). FP64 compute on Dawn loses the most ("92% and 88%",
	// §IV-B1); memory bandwidth scales perfectly on both (Table II row 3).
	setScale := func(v Variant, k Kind, fp64 bool, two, full float64) {
		c.scaling[scaleKey{v, k, fp64}] = scaleAnchor{two, full}
	}
	setScale(VariantAuroraPVC, KindPeakFlops, true, 0.97, 0.95)   // 33/34.1, 195/204.7
	setScale(VariantAuroraPVC, KindPeakFlops, false, 0.978, 0.97) // 45/46, 268/276
	setScale(VariantDawnPVC, KindPeakFlops, true, 0.92, 0.875)    // 37/40.1, 140/160.4
	setScale(VariantDawnPVC, KindPeakFlops, false, 1.0, 0.995)    // 52/52.4, 207/209.7
	setScale(VariantAuroraPVC, KindGEMM, true, 1.0, 0.96)         // 26/26, 151/156
	setScale(VariantAuroraPVC, KindGEMM, false, 0.99, 0.96)       // 411/414, 242/252...
	setScale(VariantDawnPVC, KindGEMM, true, 0.88, 0.88)          // 30/34, 120/136
	setScale(VariantDawnPVC, KindGEMM, false, 0.97, 0.95)         // SGEMM 48/50, 188/200
	setScale(VariantAuroraPVC, KindFFT1D, false, 0.95, 0.887)     // 5.9/6.2, 33/37.2
	setScale(VariantAuroraPVC, KindFFT2D, false, 0.88, 0.83)      // 6.0/6.8, 34/40.8
	setScale(VariantDawnPVC, KindFFT1D, false, 0.92, 0.90)        // 6.6/7.2, 26/28.8
	setScale(VariantDawnPVC, KindFFT2D, false, 0.90, 0.87)        // 6.5/7.2, 25/28.8
	return c
}

// Efficiency returns the achieved-efficiency factor for a kernel kind and
// precision on a calibration variant, falling back to the kind default.
func (c *Calibration) Efficiency(v Variant, kind Kind, prec hw.Precision) float64 {
	if e, ok := c.eff[effKey{v, kind, prec}]; ok {
		return e
	}
	if e, ok := c.defEff[kind]; ok {
		return e
	}
	return 1.0
}

// ScalingEff returns the parallel efficiency of running the kernel on n
// subdevices out of full on a node: 1.0 for n ≤ 1, the measured anchors
// at n = 2 and n = full, and log-linear interpolation between them.
func (c *Calibration) ScalingEff(v Variant, kind Kind, prec hw.Precision, n, full int) float64 {
	if n <= 1 {
		return 1
	}
	a, ok := c.scaling[scaleKey{v, kind, prec == hw.FP64}]
	if !ok {
		// Unmeasured combinations scale ideally (stream) — the paper's
		// Table II row 3 shows perfect memory-bandwidth scaling.
		return 1
	}
	if n <= 2 {
		return a.atTwo
	}
	if n >= full || full <= 2 {
		return a.atFull
	}
	// Log-linear between the two anchors.
	t := (math.Log(float64(n)) - math.Log(2)) / (math.Log(float64(full)) - math.Log(2))
	return a.atTwo + t*(a.atFull-a.atTwo)
}

// Model evaluates kernel performance on one node.
type Model struct {
	Node *topology.NodeSpec
	Gov  *power.Governor
	Cal  *Calibration
	Var  Variant

	obs obs.Recorder
	mem *mem.Hierarchy
}

// Observe attaches a recorder to the model and its governor. Timed
// launches then accumulate model.flops, model.mem_bytes, and — when the
// governed clock sits below MaxClock — power.throttled_s residency.
func (m *Model) Observe(r obs.Recorder) {
	m.obs = r
	m.Gov.Observe(r)
}

// New builds a model for the node with the default calibration.
func New(node *topology.NodeSpec) *Model {
	return &Model{
		Node: node,
		Gov:  power.NewGovernor(node.GPU),
		Cal:  defaultCalibration,
		Var:  VariantOf(node.System),
		mem:  mem.NewHierarchy(&node.GPU.Sub),
	}
}

// hierarchy returns the node's memory hierarchy, building it on first
// use for models assembled without New.
func (m *Model) hierarchy() *mem.Hierarchy {
	if m.mem == nil {
		m.mem = mem.NewHierarchy(&m.Node.GPU.Sub)
	}
	return m.mem
}

// SustainedRate returns the achievable throughput of one subdevice (stack
// / GCD / whole H100) for the kernel kind and precision: governed pipeline
// peak × calibrated efficiency.
func (m *Model) SustainedRate(kind Kind, prec hw.Precision) units.Rate {
	peak, _ := m.Gov.BestSustainedPeak(prec)
	return units.Rate(float64(peak) * m.Cal.Efficiency(m.Var, kind, prec))
}

// VectorRate is SustainedRate restricted to the vector pipeline, used by
// kernels that cannot use matrix engines (FMA chains, FFT butterflies).
func (m *Model) VectorRate(kind Kind, prec hw.Precision) units.Rate {
	peak := m.Gov.SustainedPeak(hw.VectorEngine, prec)
	return units.Rate(float64(peak) * m.Cal.Efficiency(m.Var, kind, prec))
}

// AggregateRate returns the node-level rate on n subdevices, applying the
// measured scaling anchors.
func (m *Model) AggregateRate(kind Kind, prec hw.Precision, n int) units.Rate {
	per := m.SustainedRate(kind, prec)
	eff := m.Cal.ScalingEff(m.Var, kind, prec, n, m.Node.TotalStacks())
	return units.Rate(float64(per) * float64(n) * eff)
}

// AggregateVectorRate is AggregateRate on the vector pipeline.
func (m *Model) AggregateVectorRate(kind Kind, prec hw.Precision, n int) units.Rate {
	per := m.VectorRate(kind, prec)
	eff := m.Cal.ScalingEff(m.Var, kind, prec, n, m.Node.TotalStacks())
	return units.Rate(float64(per) * float64(n) * eff)
}

// MemBandwidth returns the sustained triad bandwidth of n subdevices;
// Table II row 3 shows it scales perfectly with stack count.
func (m *Model) MemBandwidth(n int) units.ByteRate {
	return units.ByteRate(float64(m.Node.GPU.Sub.MemBWSustained) * float64(n))
}

// Profile characterizes one kernel launch for roofline timing.
type Profile struct {
	Name       string
	Flops      float64      // arithmetic operations
	MemBytes   units.Bytes  // HBM traffic (reads + writes)
	Precision  hw.Precision // dominant numeric format
	Engine     hw.EngineClass
	Kind       Kind          // efficiency class
	WorkingSet units.Bytes   // resident footprint, for latency effects
	Launch     units.Seconds // fixed launch/driver overhead
}

// DefaultLaunchOverhead reflects a typical GPU kernel launch cost through
// a high-level runtime (SYCL/OpenMP offload).
const DefaultLaunchOverhead units.Seconds = 10 * units.Microsecond

// timing evaluates the roofline terms of a profile on one subdevice:
// calibrated compute time, memory time, and the fixed launch overhead.
// Both SubdeviceTime and Attribution derive from it, so the priced span
// and its bound tag can never disagree.
func (m *Model) timing(p Profile) (tComp, tMem, launch units.Seconds) {
	var computeRate units.Rate
	if p.Engine == hw.MatrixEngine {
		computeRate = units.Rate(float64(m.Gov.SustainedPeak(hw.MatrixEngine, p.Precision)) *
			m.Cal.Efficiency(m.Var, p.Kind, p.Precision))
	} else {
		computeRate = m.VectorRate(p.Kind, p.Precision)
	}
	if p.Flops > 0 {
		tComp = units.TimeToCompute(p.Flops, computeRate)
	}
	if p.MemBytes > 0 {
		tMem = units.TimeToMove(p.MemBytes, m.MemBandwidth(1))
	}
	launch = p.Launch
	if launch == 0 {
		launch = DefaultLaunchOverhead
	}
	return tComp, tMem, launch
}

// SubdeviceTime returns the roofline execution time of the profile on one
// subdevice: max of calibrated compute time and memory time, plus launch
// overhead.
func (m *Model) SubdeviceTime(p Profile) units.Seconds {
	tComp, tMem, launch := m.timing(p)
	t := tComp
	if tMem > t {
		t = tMem
	}
	if m.obs != nil {
		m.obs.Add("model.flops", p.Flops)
		m.obs.Add("model.mem_bytes", float64(p.MemBytes))
		if m.Gov.Throttled(p.Engine, p.Precision) {
			m.obs.Add("power.throttled_s", float64(t+launch))
		}
	}
	return t + launch
}

// Attribution returns the binding resource of the profile on this node
// as a prof-taxonomy tag: which ceiling of the roofline — or which
// constraint outside it — the launch's duration is actually set by.
//
//   - Neither roofline term positive: the fixed launch overhead is all
//     there is ("launch", the left edge of the X18 sweep).
//   - Compute-bound with the governed clock below MaxClock: the TDP
//     governor, not the pipeline, sets the time ("power.throttle",
//     §IV-B2).
//   - Compute-bound otherwise: the pipeline at the launch's precision
//     ("compute.fp64", ...).
//   - Memory-bound with a working set held by an on-chip cache: that
//     cache's ceiling ("cache.l2", ...).
//   - Memory-bound otherwise: device-memory bandwidth ("hbm").
func (m *Model) Attribution(p Profile) string {
	tComp, tMem, _ := m.timing(p)
	switch {
	case tComp <= 0 && tMem <= 0:
		return prof.BoundLaunch
	case tComp >= tMem:
		if m.Gov.Throttled(p.Engine, p.Precision) {
			return prof.BoundPower
		}
		return prof.BoundCompute(p.Precision)
	default:
		if p.WorkingSet > 0 {
			if lv, ok := m.hierarchy().CacheResident(p.WorkingSet); ok {
				return prof.BoundCache(lv.Name)
			}
		}
		return prof.BoundHBM
	}
}
