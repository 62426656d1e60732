package perfmodel

import (
	"math"
	"strings"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/prof"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func tf(m *Model, kind Kind, prec hw.Precision) float64 {
	return float64(m.SustainedRate(kind, prec)) / 1e12
}

// Table II, "One Stack" columns: every per-stack microbenchmark rate.
func TestTableIIOneStackRates(t *testing.T) {
	aurora := New(topology.NewAurora())
	dawn := New(topology.NewDawn())
	cases := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"Aurora FP64 peak", float64(aurora.VectorRate(KindPeakFlops, hw.FP64)) / 1e12, 17, 0.03},
		{"Aurora FP32 peak", float64(aurora.VectorRate(KindPeakFlops, hw.FP32)) / 1e12, 23, 0.03},
		{"Dawn FP64 peak", float64(dawn.VectorRate(KindPeakFlops, hw.FP64)) / 1e12, 20, 0.03},
		{"Dawn FP32 peak", float64(dawn.VectorRate(KindPeakFlops, hw.FP32)) / 1e12, 26, 0.03},
		{"Aurora DGEMM", tf(aurora, KindGEMM, hw.FP64), 13, 0.05},
		{"Aurora SGEMM", tf(aurora, KindGEMM, hw.FP32), 21, 0.05},
		{"Aurora HGEMM", tf(aurora, KindGEMM, hw.FP16), 207, 0.05},
		{"Aurora BF16GEMM", tf(aurora, KindGEMM, hw.BF16), 216, 0.05},
		{"Aurora TF32GEMM", tf(aurora, KindGEMM, hw.TF32), 107, 0.05},
		{"Aurora I8GEMM", tf(aurora, KindGEMM, hw.I8), 448, 0.05},
		{"Dawn DGEMM", tf(dawn, KindGEMM, hw.FP64), 17, 0.05},
		{"Dawn SGEMM", tf(dawn, KindGEMM, hw.FP32), 25, 0.05},
		{"Dawn HGEMM", tf(dawn, KindGEMM, hw.FP16), 246, 0.05},
		{"Dawn BF16GEMM", tf(dawn, KindGEMM, hw.BF16), 254, 0.05},
		{"Dawn TF32GEMM", tf(dawn, KindGEMM, hw.TF32), 118, 0.05},
		{"Dawn I8GEMM", tf(dawn, KindGEMM, hw.I8), 525, 0.05},
		{"Aurora FFT 1D", float64(aurora.VectorRate(KindFFT1D, hw.FP32)) / 1e12, 3.1, 0.05},
		{"Aurora FFT 2D", float64(aurora.VectorRate(KindFFT2D, hw.FP32)) / 1e12, 3.4, 0.05},
		{"Dawn FFT 1D", float64(dawn.VectorRate(KindFFT1D, hw.FP32)) / 1e12, 3.6, 0.05},
		{"Dawn FFT 2D", float64(dawn.VectorRate(KindFFT2D, hw.FP32)) / 1e12, 3.6, 0.05},
	}
	for _, c := range cases {
		if relErr(c.got, c.want) > c.tol {
			t.Errorf("%s = %.2f, want %.2f (±%.0f%%)", c.name, c.got, c.want, c.tol*100)
		}
	}
}

// Table II full-node and one-PVC columns via the scaling anchors.
func TestTableIIAggregates(t *testing.T) {
	aurora := New(topology.NewAurora())
	dawn := New(topology.NewDawn())
	cases := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"Aurora FP64 one PVC", float64(aurora.AggregateVectorRate(KindPeakFlops, hw.FP64, 2)) / 1e12, 33, 0.05},
		{"Aurora FP64 six PVC", float64(aurora.AggregateVectorRate(KindPeakFlops, hw.FP64, 12)) / 1e12, 195, 0.05},
		{"Aurora FP32 six PVC", float64(aurora.AggregateVectorRate(KindPeakFlops, hw.FP32, 12)) / 1e12, 268, 0.05},
		{"Dawn FP64 one PVC", float64(dawn.AggregateVectorRate(KindPeakFlops, hw.FP64, 2)) / 1e12, 37, 0.05},
		{"Dawn FP64 four PVC", float64(dawn.AggregateVectorRate(KindPeakFlops, hw.FP64, 8)) / 1e12, 140, 0.05},
		{"Dawn FP32 four PVC", float64(dawn.AggregateVectorRate(KindPeakFlops, hw.FP32, 8)) / 1e12, 207, 0.05},
		{"Aurora DGEMM six PVC", float64(aurora.AggregateRate(KindGEMM, hw.FP64, 12)) / 1e12, 151, 0.05},
		{"Dawn DGEMM one PVC", float64(dawn.AggregateRate(KindGEMM, hw.FP64, 2)) / 1e12, 30, 0.05},
		{"Dawn DGEMM four PVC", float64(dawn.AggregateRate(KindGEMM, hw.FP64, 8)) / 1e12, 120, 0.05},
		{"Aurora SGEMM six PVC", float64(aurora.AggregateRate(KindGEMM, hw.FP32, 12)) / 1e12, 242, 0.06},
		{"Aurora HGEMM one PVC", float64(aurora.AggregateRate(KindGEMM, hw.FP16, 2)) / 1e12, 411, 0.05},
		{"Aurora I8 six PVC", float64(aurora.AggregateRate(KindGEMM, hw.I8, 12)) / 1e12, 5000, 0.07},
		{"Dawn HGEMM one PVC", float64(dawn.AggregateRate(KindGEMM, hw.FP16, 2)) / 1e12, 509, 0.07},
		{"Dawn TF32 one PVC", float64(dawn.AggregateRate(KindGEMM, hw.TF32, 2)) / 1e12, 200, 0.15},
		{"Aurora FFT1D six PVC", float64(aurora.AggregateVectorRate(KindFFT1D, hw.FP32, 12)) / 1e12, 33, 0.05},
		{"Dawn FFT2D four PVC", float64(dawn.AggregateVectorRate(KindFFT2D, hw.FP32, 8)) / 1e12, 25, 0.05},
	}
	for _, c := range cases {
		if relErr(c.got, c.want) > c.tol {
			t.Errorf("%s = %.1f, want %.1f (±%.0f%%)", c.name, c.got, c.want, c.tol*100)
		}
	}
}

func TestMemBandwidthScalesPerfectly(t *testing.T) {
	aurora := New(topology.NewAurora())
	// Table II row 3: 1 / 2 / 12 TB/s.
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1e12}, {2, 2e12}, {12, 12e12}} {
		if got := float64(aurora.MemBandwidth(c.n)); relErr(got, c.want) > 0.01 {
			t.Errorf("Aurora triad ×%d = %v, want %v", c.n, got, c.want)
		}
	}
	dawn := New(topology.NewDawn())
	if got := float64(dawn.MemBandwidth(8)); relErr(got, 8e12) > 0.01 {
		t.Errorf("Dawn full node triad = %v, want 8 TB/s", got)
	}
}

func TestScalingEffInterpolation(t *testing.T) {
	c := DefaultCalibration()
	// n=1 is always 1.0.
	if c.ScalingEff(VariantAuroraPVC, KindPeakFlops, hw.FP64, 1, 12) != 1 {
		t.Error("single stack must not be derated")
	}
	// Anchors returned exactly.
	if got := c.ScalingEff(VariantAuroraPVC, KindPeakFlops, hw.FP64, 2, 12); got != 0.97 {
		t.Errorf("two-stack anchor = %v", got)
	}
	if got := c.ScalingEff(VariantAuroraPVC, KindPeakFlops, hw.FP64, 12, 12); got != 0.95 {
		t.Errorf("full anchor = %v", got)
	}
	// Interpolated values lie between anchors.
	mid := c.ScalingEff(VariantAuroraPVC, KindPeakFlops, hw.FP64, 6, 12)
	if mid <= 0.95 || mid >= 0.97 {
		t.Errorf("interpolated eff = %v, want in (0.95, 0.97)", mid)
	}
	// Unknown combination scales ideally.
	if c.ScalingEff(VariantH100, KindStream, hw.FP64, 4, 4) != 1 {
		t.Error("unmeasured scaling should default to 1")
	}
}

func TestEfficiencyFallbacks(t *testing.T) {
	c := DefaultCalibration()
	// Unknown (variant, kind, prec) falls to kind default.
	if got := c.Efficiency(VariantH100, KindFFT1D, hw.FP32); got != 0.14 {
		t.Errorf("fallback FFT eff = %v", got)
	}
	// Unknown kind falls to 1.0.
	if got := c.Efficiency(VariantH100, Kind(99), hw.FP32); got != 1.0 {
		t.Errorf("unknown kind eff = %v", got)
	}
}

func TestSubdeviceTimeRoofline(t *testing.T) {
	m := New(topology.NewAurora())
	// Pure compute profile: 17.03e12 flops of FP64 FMA ≈ 1 s + launch.
	comp := Profile{Name: "fma", Flops: 17.03e12, Precision: hw.FP64, Kind: KindPeakFlops}
	tc := m.SubdeviceTime(comp)
	if relErr(float64(tc), 1.0) > 0.02 {
		t.Errorf("compute profile time = %v, want ~1s", tc)
	}
	// Pure memory profile: 1e12 bytes at 1 TB/s ≈ 1 s.
	mem := Profile{Name: "triad", MemBytes: 1e12, Precision: hw.FP64, Kind: KindStream}
	tm := m.SubdeviceTime(mem)
	if relErr(float64(tm), 1.0) > 0.02 {
		t.Errorf("memory profile time = %v, want ~1s", tm)
	}
	// Roofline takes the max, not the sum.
	both := Profile{Name: "mix", Flops: 17.03e12, MemBytes: 1e12, Precision: hw.FP64, Kind: KindPeakFlops}
	tb := m.SubdeviceTime(both)
	if relErr(float64(tb), 1.0) > 0.05 {
		t.Errorf("mixed profile time = %v, want ~1s (max, not sum)", tb)
	}
	// Launch overhead dominates empty profiles.
	empty := Profile{Name: "null"}
	if got := m.SubdeviceTime(empty); got != DefaultLaunchOverhead {
		t.Errorf("empty profile time = %v", got)
	}
	// Explicit launch override.
	withLaunch := Profile{Name: "l", Launch: 1 * units.Millisecond}
	if got := m.SubdeviceTime(withLaunch); got != 1*units.Millisecond {
		t.Errorf("explicit launch = %v", got)
	}
}

func TestBoundClassification(t *testing.T) {
	m := New(topology.NewAurora())
	// Triad: 2 flops per 24 bytes → bound by device memory.
	triad := Profile{Flops: 2e9, MemBytes: 24e9, Precision: hw.FP64, Kind: KindStream}
	if got := m.Attribution(triad); got != prof.BoundHBM {
		t.Errorf("triad attributed to %q, want %q", got, prof.BoundHBM)
	}
	// GEMM at N=20480: 2N³ flops over ~3N²·8 bytes → bound by the
	// pipeline or by the power governor that clocks it.
	n := 20480.0
	gemm := Profile{Flops: 2 * n * n * n, MemBytes: units.Bytes(3 * n * n * 8), Precision: hw.FP64, Engine: hw.VectorEngine, Kind: KindGEMM}
	if got := m.Attribution(gemm); !strings.HasPrefix(got, "compute.") && got != prof.BoundPower {
		t.Errorf("large GEMM attributed to %q, want a compute.* or %q tag", got, prof.BoundPower)
	}
}

// The matrix engine path must be used for FP16 GEMM profiles.
func TestMatrixEngineProfile(t *testing.T) {
	m := New(topology.NewAurora())
	p := Profile{Name: "hgemm", Flops: 207e12, Precision: hw.FP16, Engine: hw.MatrixEngine, Kind: KindGEMM}
	tt := m.SubdeviceTime(p)
	if relErr(float64(tt), 1.0) > 0.05 {
		t.Errorf("HGEMM of 207 Tflop should take ~1s on an Aurora stack, got %v", tt)
	}
}

func TestVariantOf(t *testing.T) {
	if VariantOf(topology.Aurora) != VariantAuroraPVC ||
		VariantOf(topology.Dawn) != VariantDawnPVC ||
		VariantOf(topology.JLSEH100) != VariantH100 ||
		VariantOf(topology.JLSEMI250) != VariantMI250 {
		t.Error("variant mapping wrong")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindPeakFlops, KindGEMM, KindFFT1D, KindFFT2D, KindStream, KindCompute} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

// §IV-B5 reference: MI250 GCD DGEMM ≈ 24.1 TF, SGEMM ≈ 33.8 TF.
func TestMI250GEMMReferences(t *testing.T) {
	m := New(topology.NewJLSEMI250())
	if got := tf(m, KindGEMM, hw.FP64); relErr(got, 24.1) > 0.05 {
		t.Errorf("MI250 GCD DGEMM = %.1f, want 24.1", got)
	}
	if got := tf(m, KindGEMM, hw.FP32); relErr(got, 33.8) > 0.05 {
		t.Errorf("MI250 GCD SGEMM = %.1f, want 33.8", got)
	}
}
