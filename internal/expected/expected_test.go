package expected

import (
	"math"
	"testing"

	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.3f, want %.3f", name, got, want)
	}
}

// The paper's worked example for Figure 2: "miniBUDE is a single precision
// (FP32) flop-rate bound mini-app, and thus the expected relative
// performance is the ratio of the peak single precision performance on
// Aurora to that on Dawn, 0.88X (23 Tflops/s / 26 Tflop/s)".
func TestFigure2MiniBUDEExample(t *testing.T) {
	p := NewPredictor()
	r, ok := p.Ratio(paper.MiniBUDE, topology.Aurora, PerStack, topology.Dawn, PerStack)
	if !ok {
		t.Fatal("miniBUDE should have a bar")
	}
	approx(t, "Aurora/Dawn miniBUDE bar", r, 0.88, 0.03)
}

// The paper's worked example for Figure 3: "for Cloverleaf (bound by
// memory bandwidth) on a single GPU, the measured memory bandwidth on a
// PVC ... is 2 TB/s, while for H100 ... 3.35 TB/s. Thus the expected
// ratio is 0.59".
func TestFigure3CloverLeafExample(t *testing.T) {
	p := NewPredictor()
	r, ok := p.Ratio(paper.CloverLeaf, topology.Aurora, PerGPU, topology.JLSEH100, PerGPU)
	if !ok {
		t.Fatal("CloverLeaf should have a bar")
	}
	approx(t, "PVC/H100 CloverLeaf bar", r, 0.59, 0.03)
	// Dawn gives the same bar — same per-GPU bandwidth.
	rd, _ := p.Ratio(paper.CloverLeaf, topology.Dawn, PerGPU, topology.JLSEH100, PerGPU)
	approx(t, "Dawn/H100 CloverLeaf bar", rd, 0.59, 0.03)
}

// The paper's worked example for Figure 4: "for one PVC Stack / one AMD
// GCD, miniBUDE ... For Aurora it's 1.0X (23 / (45.3/2)) and for Dawn
// it's 1.1X (26 / (45.3/2))".
func TestFigure4MiniBUDEExample(t *testing.T) {
	p := NewPredictor()
	ra, _ := p.Ratio(paper.MiniBUDE, topology.Aurora, PerStack, topology.JLSEMI250, PerStack)
	approx(t, "Aurora stack/GCD miniBUDE bar", ra, 1.0, 0.03)
	rd, _ := p.Ratio(paper.MiniBUDE, topology.Dawn, PerStack, topology.JLSEMI250, PerStack)
	approx(t, "Dawn stack/GCD miniBUDE bar", rd, 1.14, 0.03)
}

// miniQMC gets no bar: "none of the microbenchmarks represented the CPU
// congestion bottleneck in this mini-app".
func TestMiniQMCHasNoBar(t *testing.T) {
	p := NewPredictor()
	if _, ok := p.Ratio(paper.MiniQMC, topology.Aurora, PerStack, topology.Dawn, PerStack); ok {
		t.Error("miniQMC should have no expectation bar")
	}
	if BoundResource(paper.MiniQMC) != ResourceNone {
		t.Error("miniQMC bound resource should be none")
	}
}

func TestBoundResources(t *testing.T) {
	cases := map[paper.Workload]Resource{
		paper.MiniBUDE:   ResourceFP32,
		paper.CloverLeaf: ResourceMemBW,
		paper.MiniGAMESS: ResourceDGEMM,
		paper.OpenMC:     ResourceMemBW,
		paper.HACC:       ResourceFP32,
		paper.MiniQMC:    ResourceNone,
	}
	for w, want := range cases {
		if got := BoundResource(w); got != want {
			t.Errorf("%v bound = %v, want %v", w, got, want)
		}
	}
}

// mini-GAMESS (DGEMM bound): Aurora one PVC 26 TF vs H100 theoretical 34
// TF → ~0.76.
func TestMiniGAMESSBar(t *testing.T) {
	p := NewPredictor()
	r, ok := p.Ratio(paper.MiniGAMESS, topology.Aurora, PerGPU, topology.JLSEH100, PerGPU)
	if !ok {
		t.Fatal("mini-GAMESS should have a bar")
	}
	approx(t, "Aurora PVC/H100 mini-GAMESS bar", r, 26.0/34.0, 0.05)
}

func TestNodeGranularity(t *testing.T) {
	p := NewPredictor()
	// Full-node CloverLeaf Aurora vs H100: 12 TB/s vs 4×3.35 = 13.4 TB/s.
	r, ok := p.Ratio(paper.CloverLeaf, topology.Aurora, PerNode, topology.JLSEH100, PerNode)
	if !ok {
		t.Fatal("should have a bar")
	}
	approx(t, "node CloverLeaf bar", r, 12.0/13.4, 0.03)
}

func TestValueUnknownResource(t *testing.T) {
	p := NewPredictor()
	if _, ok := p.Value(paper.MiniQMC, topology.Aurora, PerStack); ok {
		t.Error("miniQMC value should be unavailable")
	}
}

// The Aurora-vs-Dawn figure's black bars: every mini-app at every
// granularity has a positive expectation except miniQMC, which has none.
func TestFigureBars(t *testing.T) {
	p := NewPredictor()
	hasBarCount := 0
	for _, w := range []paper.Workload{paper.MiniBUDE, paper.CloverLeaf, paper.MiniQMC, paper.MiniGAMESS} {
		for _, g := range []Granularity{PerStack, PerGPU, PerNode} {
			r, ok := p.Ratio(w, topology.Aurora, g, topology.Dawn, g)
			if !ok {
				continue
			}
			hasBarCount++
			if w == paper.MiniQMC {
				t.Errorf("%v (%v) has an expectation bar", w, g)
			}
			if r <= 0 {
				t.Errorf("%v (%v) bar has non-positive ratio %v", w, g, r)
			}
		}
	}
	// miniQMC contributes no bars: 3 of 12 missing.
	if hasBarCount != 9 {
		t.Errorf("bars with expectations = %d, want 9", hasBarCount)
	}
}

func TestGranularityNames(t *testing.T) {
	if PerStack.String() != "One Stack" || PerGPU.String() != "One GPU" || PerNode.String() != "Full Node" {
		t.Error("granularity names")
	}
	for _, r := range []Resource{ResourceNone, ResourceFP32, ResourceMemBW, ResourceDGEMM} {
		if r.String() == "" {
			t.Error("resource name empty")
		}
	}
}
