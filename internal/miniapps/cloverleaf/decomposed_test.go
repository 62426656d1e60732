package cloverleaf

import (
	"math"
	"pvcsim/internal/gpusim"
	"testing"

	"pvcsim/internal/topology"
)

func maxStateDiff(a, b *State) float64 {
	worst := 0.0
	for k := range a.Rho {
		for _, d := range []float64{
			a.Rho[k] - b.Rho[k], a.MomX[k] - b.MomX[k],
			a.MomY[k] - b.MomY[k], a.E[k] - b.E[k],
		} {
			if math.Abs(d) > worst {
				worst = math.Abs(d)
			}
		}
	}
	return worst
}

func TestNewDecomposedValidation(t *testing.T) {
	s, _ := Sod(32, 4)
	if _, err := NewDecomposed(s, 0); err == nil {
		t.Error("0 strips should fail")
	}
	if _, err := NewDecomposed(s, 100); err == nil {
		t.Error("too many strips should fail")
	}
	per, _ := NewState(32, 4, 0.1, 0.1, true)
	if _, err := NewDecomposed(per, 2); err == nil {
		t.Error("periodic decomposition unimplemented, should fail")
	}
}

// The headline correctness result: the decomposed solver with halo
// exchange matches the monolithic solver exactly, for even and uneven
// strip counts.
func TestDecomposedMatchesMonolithicExactly(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		mono, err := Sod(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := Sod(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := NewDecomposed(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Ranks() != k {
			t.Fatalf("ranks = %d", dec.Ranks())
		}
		for step := 0; step < 15; step++ {
			dtM := mono.Step(0)
			dtD := dec.Step(0)
			if dtM != dtD {
				t.Fatalf("k=%d step %d: dt %v vs %v", k, step, dtM, dtD)
			}
		}
		got, err := dec.Gather()
		if err != nil {
			t.Fatal(err)
		}
		if d := maxStateDiff(mono, got); d != 0 {
			t.Errorf("k=%d: decomposed differs from monolithic by %v", k, d)
		}
	}
}

// The decomposed dt equals the monolithic dt from the first step (the
// allreduce semantics).
func TestDecomposedDt(t *testing.T) {
	mono, _ := Sod(48, 4)
	seed, _ := Sod(48, 4)
	dec, _ := NewDecomposed(seed, 4)
	if mono.Dt() != dec.Dt() {
		t.Errorf("dt %v vs %v", mono.Dt(), dec.Dt())
	}
}

// Mass is conserved across strips (halo exchange neither creates nor
// destroys material).
func TestDecomposedMassConservation(t *testing.T) {
	seed, _ := Sod(60, 6)
	m0 := seed.TotalMass()
	dec, err := NewDecomposed(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		dec.Step(0)
	}
	got, _ := dec.Gather()
	if rel := math.Abs(got.TotalMass()-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drift %v", rel)
	}
}

// The weak-scaling timing driver: at the paper's per-rank grid size the
// MPI overhead (halos + dt allreduce) is a small fraction of the step
// time — consistent with "this large problem size has been selected to
// minimise the overhead incurred by MPI communication".
func TestWeakScalingCommOverheadSmall(t *testing.T) {
	total, comm, err := WeakScalingBreakdownOn(auroraMachine(t), 12, PaperGridEdge, 3)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || comm < 0 {
		t.Fatalf("degenerate times: total %v comm %v", total, comm)
	}
	frac := float64(comm) / float64(total)
	if frac > 0.05 {
		t.Errorf("comm fraction = %.1f%%, want < 5%% at the paper's grid size", frac*100)
	}
	// A tiny grid flips the balance: communication dominates.
	totalSmall, commSmall, err := WeakScalingBreakdownOn(auroraMachine(t), 12, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	fracSmall := float64(commSmall) / float64(totalSmall)
	if !(fracSmall > frac*3) {
		t.Errorf("small-grid comm fraction %.2f%% should far exceed large-grid %.2f%%",
			fracSmall*100, frac*100)
	}
}

// auroraMachine builds one Aurora node.
func auroraMachine(t *testing.T) *gpusim.Machine {
	t.Helper()
	m, err := gpusim.New(topology.NewAurora())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWeakScalingValidation(t *testing.T) {
	if _, _, err := WeakScalingBreakdownOn(auroraMachine(t), 99, 1024, 1); err == nil {
		t.Error("too many ranks should fail")
	}
}
