package microbench

import (
	"testing"

	"pvcsim/internal/topology"
)

// decadeWorks spans launch-bound to saturated: 10⁶ to 10¹³ flops.
var decadeWorks = []float64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13}

func TestPeakFlopsSweepShape(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	curve, err := s.PeakFlopsSweep(FP64Chain, decadeWorks)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 8 {
		t.Fatalf("points = %d", len(curve))
	}
	// Fraction of peak is nondecreasing with work and approaches 1.
	prev := 0.0
	for _, pt := range curve {
		if pt.Fraction < prev-1e-9 {
			t.Fatalf("fraction not monotone at work %v", pt.Work)
		}
		prev = pt.Fraction
	}
	if last := curve[len(curve)-1]; last.Fraction < 0.99 {
		t.Errorf("largest launch reaches only %.1f%% of peak", last.Fraction*100)
	}
	// The smallest launch is dominated by the 10 µs launch overhead:
	// 1e6 flops at 17 TF would take 59 ns, so fraction ≈ 59ns/10µs.
	if first := curve[0]; first.Fraction > 0.05 {
		t.Errorf("tiny launch fraction = %.3f, should be launch-bound", first.Fraction)
	}
}

// The FP32 chain's knee, the smallest swept launch that reaches 90% of
// peak, is the "large enough kernel" threshold.
func TestKneeWork(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	curve, err := s.PeakFlopsSweep(FP32Chain, decadeWorks)
	if err != nil {
		t.Fatal(err)
	}
	knee := 0.0
	for _, pt := range curve {
		if pt.Fraction >= 0.9 {
			knee = pt.Work
			break
		}
	}
	// 90% of peak needs work ≥ 9×launch×rate ≈ 9×10µs×22.7TF ≈ 2e9;
	// the decade grid lands on 1e10.
	if knee < 1e9 || knee > 1e11 {
		t.Errorf("knee = %v, want ~1e10", knee)
	}
}

func TestPeakFlopsSweepValidation(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	if _, err := s.PeakFlopsSweep(FP64Chain, []float64{-1}); err == nil {
		t.Error("negative work should fail")
	}
}

// The paper's actual benchmark sits far beyond the knee: a full-stack
// launch of 16×128 FMAs per work-item across 448 vector engines × 16
// lanes ≈ 1.5e8 flops per wave, repeated to saturation.
func TestPaperKernelBeyondKnee(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	curve, err := s.PeakFlopsSweep(FP64Chain, []float64{1e12})
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].Fraction < 0.98 {
		t.Errorf("1e12-flop launch fraction = %.3f", curve[0].Fraction)
	}
}
