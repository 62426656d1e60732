package hw

import (
	"math"
	"testing"

	"pvcsim/internal/units"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestPrecisionStringsAndBytes(t *testing.T) {
	cases := []struct {
		p    Precision
		name string
	}{
		{FP64, "FP64"}, {FP32, "FP32"}, {FP16, "FP16"},
		{BF16, "BF16"}, {TF32, "TF32"}, {I8, "I8"},
	}
	for _, c := range cases {
		if c.p.String() != c.name {
			t.Errorf("%v String = %q", c.p, c.p.String())
		}
	}
}

// The paper, Section II: "together all the vector engines in each Xe-Core
// can perform 256 double precision floating point operations per clock",
// and a full card reaches "32,768 double precision and single precision
// floating point operations per clock".
func TestPVCFirstPrinciplesOpsPerClock(t *testing.T) {
	dawn := NewDawnPVC()
	perCore := dawn.Sub.VectorOpsPerClockPerCore[FP64]
	if perCore != 256 {
		t.Errorf("FP64 ops/clock/Xe-Core = %v, want 256", perCore)
	}
	card := dawn.Sub.OpsPerClock(VectorEngine, FP64) * float64(dawn.SubCount)
	if card != 32768 {
		t.Errorf("card FP64 ops/clock = %v, want 32768", card)
	}
	if dawn.Sub.OpsPerClock(VectorEngine, FP32)*float64(dawn.SubCount) != 32768 {
		t.Error("FP32 per-clock should equal FP64 per-clock on PVC")
	}
	// Matrix engines do not support FP64 on PVC.
	if dawn.Sub.OpsPerClock(MatrixEngine, FP64) != 0 {
		t.Error("PVC matrix engines must not support FP64")
	}
}

// §IV-B1: "17 Tflop/s is 99% of the expected theoretical number:
// 1.2 GHz × 448 (vector engines per Stack) × 8 × 2 × 2 = 17 TFlop/s."
func TestAuroraStackFP64PeakAt1p2GHz(t *testing.T) {
	aurora := NewAuroraPVC()
	if aurora.Sub.CoreCount != 56 {
		t.Fatalf("Aurora active Xe-Cores per stack = %d, want 56", aurora.Sub.CoreCount)
	}
	ves := aurora.Sub.CoreCount * PVCVectorEnginesPerXeCore
	if ves != 448 {
		t.Errorf("vector engines per stack = %d, want 448", ves)
	}
	peak := aurora.Sub.PeakRate(VectorEngine, FP64, 1.2*units.GHz)
	if relErr(float64(peak), 17.2e12) > 0.01 {
		t.Errorf("Aurora stack FP64 @1.2GHz = %v, want ~17.2 TF", peak)
	}
	// FP32 at 1.6 GHz ≈ 23 TFlop/s (Table II).
	fp32 := aurora.Sub.PeakRate(VectorEngine, FP32, 1.6*units.GHz)
	if relErr(float64(fp32), 22.9e12) > 0.01 {
		t.Errorf("Aurora stack FP32 @1.6GHz = %v, want ~22.9 TF", fp32)
	}
}

func TestDawnStackPeaks(t *testing.T) {
	dawn := NewDawnPVC()
	if dawn.Sub.CoreCount != 64 {
		t.Fatalf("Dawn Xe-Cores per stack = %d, want 64", dawn.Sub.CoreCount)
	}
	// Table II: 20 TFlop/s FP64 per stack (at ~1.22 GHz under 600 W), and
	// 26 TFlop/s FP32 at 1.6 GHz.
	fp64 := dawn.Sub.PeakRate(VectorEngine, FP64, 1.22*units.GHz)
	if relErr(float64(fp64), 20e12) > 0.01 {
		t.Errorf("Dawn stack FP64 @1.22GHz = %v, want ~20 TF", fp64)
	}
	fp32 := dawn.Sub.PeakRate(VectorEngine, FP32, 1.6*units.GHz)
	if relErr(float64(fp32), 26.2e12) > 0.01 {
		t.Errorf("Dawn stack FP32 = %v, want ~26.2 TF", fp32)
	}
}

// The compute-unit ratio between Aurora and Dawn (§VII): 56/64 = 0.875.
func TestAuroraDawnCoreRatio(t *testing.T) {
	a, d := NewAuroraPVC(), NewDawnPVC()
	ratio := float64(a.Sub.CoreCount) / float64(d.Sub.CoreCount)
	if ratio != 0.875 {
		t.Errorf("core ratio = %v, want 0.875", ratio)
	}
}

func TestBestPeakRatePicksMatrixForLowPrecision(t *testing.T) {
	d := NewDawnPVC()
	rate := d.Sub.PeakRate(MatrixEngine, FP16, 1*units.GHz)
	if rate <= d.Sub.PeakRate(VectorEngine, FP16, 1*units.GHz) {
		t.Errorf("FP16 matrix rate %v should beat the vector pipeline", rate)
	}
	if float64(rate) != 4096*64*1e9 {
		t.Errorf("FP16 matrix rate = %v", rate)
	}
	if d.Sub.PeakRate(MatrixEngine, FP64, 1*units.GHz) != 0 {
		t.Error("FP64 has no matrix pipeline on PVC: the vector pipeline is the best")
	}
}

func TestLinkSpecSustained(t *testing.T) {
	l := NewAuroraPVC().HostLink
	// Measured PCIe Gen5: ~54 GB/s unidirectional, ~76 GB/s bidirectional.
	if relErr(float64(l.Sustained()), 54e9) > 0.02 {
		t.Errorf("PCIe sustained = %v, want ~54 GB/s", l.Sustained())
	}
	if bidir := float64(l.Sustained()) * l.DuplexFactor; relErr(bidir, 76e9) > 0.02 {
		t.Errorf("PCIe bidir = %v, want ~76 GB/s", bidir)
	}
}

func TestPVCInternalAndPeerLinks(t *testing.T) {
	d := NewAuroraPVC()
	if relErr(float64(d.InternalLink.Sustained()), 197e9) > 0.02 {
		t.Errorf("stack-to-stack uni = %v, want ~197 GB/s", d.InternalLink.Sustained())
	}
	if bidir := float64(d.InternalLink.Sustained()) * d.InternalLink.DuplexFactor; relErr(bidir, 284e9) > 0.02 {
		t.Errorf("stack-to-stack bidir = %v, want ~284 GB/s", bidir)
	}
	if relErr(float64(d.PeerLink.Sustained()), 15e9) > 0.03 {
		t.Errorf("Xe-Link uni = %v, want ~15 GB/s", d.PeerLink.Sustained())
	}
	// The paper's observation: Xe-Link is slower than PCIe.
	if d.PeerLink.Sustained() >= d.HostLink.Sustained() {
		t.Error("Xe-Link should be slower than PCIe (§IV-B7)")
	}
}

// Figure 1 relationships: PVC L1 latency is ~90% higher than H100 and ~51%
// lower than MI250; L2 is 50% and 78% higher; HBM is 23% and 44% higher.
func TestFigure1LatencyRelationships(t *testing.T) {
	pvc, h100, mi250 := NewAuroraPVC().Sub.Caches, NewH100().Sub.Caches, NewMI250().Sub.Caches
	check := func(name string, got, want, tol float64) {
		if relErr(got, want) > tol {
			t.Errorf("%s: ratio = %.3f, want %.3f", name, got, want)
		}
	}
	check("PVC/H100 L1", pvc[0].LatencyCycles/h100[0].LatencyCycles, 1.90, 0.05)
	check("PVC/MI250 L1", pvc[0].LatencyCycles/mi250[0].LatencyCycles, 0.49, 0.05)
	check("PVC/H100 L2", pvc[1].LatencyCycles/h100[1].LatencyCycles, 1.50, 0.05)
	check("PVC/MI250 L2", pvc[1].LatencyCycles/mi250[1].LatencyCycles, 1.78, 0.05)
	check("PVC/H100 HBM", pvc[2].LatencyCycles/h100[2].LatencyCycles, 1.23, 0.05)
	check("PVC/MI250 HBM", pvc[2].LatencyCycles/mi250[2].LatencyCycles, 1.44, 0.05)
}

// Figure 1: "the Xe-Core on Dawn and Aurora has a L1 cache of 512KiB...
// larger than the other GPUs in this study".
func TestPVCL1LargestCapacity(t *testing.T) {
	pvc, h100, mi250 := NewAuroraPVC(), NewH100(), NewMI250()
	if pvc.Sub.Caches[0].Capacity != 512*units.KiB {
		t.Errorf("PVC L1 = %v, want 512 KiB", pvc.Sub.Caches[0].Capacity)
	}
	if pvc.Sub.Caches[0].Capacity <= h100.Sub.Caches[0].Capacity ||
		pvc.Sub.Caches[0].Capacity <= mi250.Sub.Caches[0].Capacity {
		t.Error("PVC L1 should be the largest")
	}
	if pvc.Sub.Caches[1].Capacity != 192*units.MiB {
		t.Errorf("PVC L2 = %v, want 192 MiB per stack", pvc.Sub.Caches[1].Capacity)
	}
}

// Table IV sanity: H100 FP64 34 TF, FP32 67 TF; MI250 45.3/45.3 per card.
func TestH100AndMI250DatasheetPeaks(t *testing.T) {
	h := NewH100()
	fp64 := h.Sub.PeakRate(VectorEngine, FP64, h.Power.MaxClock)
	if relErr(float64(fp64), 33.5e12) > 0.03 {
		t.Errorf("H100 FP64 = %v, want ~34 TF", fp64)
	}
	fp32 := h.Sub.PeakRate(VectorEngine, FP32, h.Power.MaxClock)
	if relErr(float64(fp32), 67e12) > 0.03 {
		t.Errorf("H100 FP32 = %v, want ~67 TF", fp32)
	}
	m := NewMI250()
	card64 := m.Sub.OpsPerClock(VectorEngine, FP64) * float64(m.SubCount) * 1.7e9
	if relErr(card64, 45.3e12) > 0.02 {
		t.Errorf("MI250 card FP64 = %v, want ~45.3 TF", card64)
	}
	if m.SubCount != 2 {
		t.Error("MI250 has two GCDs")
	}
	// Matrix cores have twice the vector peak (§IV-B5).
	if m.Sub.OpsPerClock(MatrixEngine, FP64) != 2*m.Sub.OpsPerClock(VectorEngine, FP64) {
		t.Error("MI250 matrix FP64 should be 2× vector")
	}
}

func TestMemBandwidths(t *testing.T) {
	pvc := NewAuroraPVC()
	if pvc.Sub.MemBWSustained != 1.0*units.TBps {
		t.Errorf("PVC sustained triad = %v, want 1 TB/s per stack", pvc.Sub.MemBWSustained)
	}
	mi := NewMI250()
	if relErr(float64(mi.Sub.MemBWSustained), 1.3e12) > 0.01 {
		t.Errorf("MI250 GCD sustained = %v, want 1.3 TB/s", mi.Sub.MemBWSustained)
	}
	h := NewH100()
	if h.Sub.MemBWTheoretical != 3.35*units.TBps {
		t.Errorf("H100 theoretical = %v, want 3.35 TB/s", h.Sub.MemBWTheoretical)
	}
}

func TestDomainCap(t *testing.T) {
	a := NewAuroraPVC()
	if a.DomainCapW() != 250 {
		t.Errorf("Aurora domain cap = %v, want 250 W", a.DomainCapW())
	}
	d := NewDawnPVC()
	if d.DomainCapW() != 300 {
		t.Errorf("Dawn domain cap = %v, want 300 W", d.DomainCapW())
	}
}

func TestCardMemory(t *testing.T) {
	if d := NewDawnPVC(); d.Sub.Memory*units.Bytes(d.SubCount) != 128*units.GB {
		t.Error("PVC card memory should be 128 GB")
	}
	if d := NewMI250(); d.Sub.Memory*units.Bytes(d.SubCount) != 128*units.GB {
		t.Error("MI250 card memory should be 128 GB")
	}
}

func TestWorkloadClassOf(t *testing.T) {
	if ClassOf(VectorEngine, FP64) != VectorFP64 {
		t.Error("vector FP64")
	}
	if ClassOf(VectorEngine, FP32) != VectorFP32 {
		t.Error("vector FP32")
	}
	if ClassOf(MatrixEngine, FP16) != MatrixLow {
		t.Error("matrix FP16")
	}
	for _, w := range []WorkloadClass{IdleWorkload, MemoryBound, VectorFP64, VectorFP32, MatrixLow} {
		if w.String() == "" {
			t.Error("empty class name")
		}
	}
	if VectorEngine.String() != "vector" || MatrixEngine.String() != "matrix" {
		t.Error("engine class names")
	}
}
