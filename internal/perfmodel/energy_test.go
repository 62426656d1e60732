package perfmodel

import (
	"math"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/topology"
)

func TestEnergyToSolutionBasics(t *testing.T) {
	m := New(topology.NewAurora())
	rep, err := m.EnergyToSolution(KindPeakFlops, hw.FP64, 1e15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time <= 0 || rep.EnergyJ <= 0 || rep.OpsPerWatt <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	// An FP64-FMA-saturated Aurora stack draws its 250 W domain cap.
	if math.Abs(rep.PowerW-250) > 1 {
		t.Errorf("stack power = %v, want ~250 W (TDP-limited)", rep.PowerW)
	}
	// 17 TFlop/s at 250 W → ~68 GFlop/J.
	if math.Abs(rep.OpsPerWatt-68e9)/68e9 > 0.05 {
		t.Errorf("efficiency = %v ops/W, want ~68e9", rep.OpsPerWatt)
	}
}

// FP32 is more energy-efficient per op than FP64 on PVC: same ops/clock,
// higher clock, lower per-op switching energy.
func TestFP32MoreEfficientThanFP64(t *testing.T) {
	m := New(topology.NewAurora())
	r64, err := m.EnergyToSolution(KindPeakFlops, hw.FP64, 1e15, 1)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := m.EnergyToSolution(KindPeakFlops, hw.FP32, 1e15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(r32.OpsPerWatt > r64.OpsPerWatt) {
		t.Errorf("FP32 %v ops/W should beat FP64 %v", r32.OpsPerWatt, r64.OpsPerWatt)
	}
}

// Energy scales with work; power with subdevice count.
func TestEnergyScaling(t *testing.T) {
	m := New(topology.NewAurora())
	small, _ := m.EnergyToSolution(KindPeakFlops, hw.FP64, 1e14, 1)
	big, _ := m.EnergyToSolution(KindPeakFlops, hw.FP64, 1e15, 1)
	if math.Abs(big.EnergyJ/small.EnergyJ-10) > 0.01 {
		t.Errorf("energy should scale with work: %v vs %v", big.EnergyJ, small.EnergyJ)
	}
	node, _ := m.EnergyToSolution(KindPeakFlops, hw.FP64, 1e15, 12)
	if math.Abs(node.PowerW-12*250) > 5 {
		t.Errorf("node power = %v, want ~3000 W", node.PowerW)
	}
}

func TestEnergyValidation(t *testing.T) {
	m := New(topology.NewAurora())
	if _, err := m.EnergyToSolution(KindPeakFlops, hw.FP64, 0, 1); err == nil {
		t.Error("zero ops should fail")
	}
	if _, err := m.EnergyToSolution(KindPeakFlops, hw.FP64, 1, 99); err == nil {
		t.Error("too many subdevices should fail")
	}
}

// TestEnergyComparison runs the X21 comparison's fixed DGEMM work on
// every system's full node, as the energy cell does.
func TestEnergyComparison(t *testing.T) {
	for _, sys := range topology.AllSystems() {
		m := New(topology.NewNode(sys))
		rep, err := m.EnergyToSolution(KindGEMM, hw.FP64, 1e16, m.Node.TotalStacks())
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if rep.OpsPerWatt <= 0 {
			t.Errorf("%s: bad efficiency %v", sys, rep.OpsPerWatt)
		}
	}
}
