package minibude

import (
	"math"
	"testing"

	"pvcsim/internal/paper"
	"pvcsim/internal/sched"
	"pvcsim/internal/topology"
)

func smallDeck(seed int64) *Deck { return NewSyntheticDeck(16, 24, 8, seed) }

func TestDeckShape(t *testing.T) {
	d := smallDeck(1)
	if len(d.Ligand) != 16 || len(d.Protein) != 24 || len(d.Poses) != 8 {
		t.Fatal("deck sizes wrong")
	}
	// Deterministic generation.
	d2 := smallDeck(1)
	if d.Ligand[3] != d2.Ligand[3] || d.Poses[5] != d2.Poses[5] {
		t.Error("same seed must give same deck")
	}
}

func TestIdentityPoseTransform(t *testing.T) {
	a := Atom{X: 1, Y: 2, Z: 3}
	x, y, z := Pose{}.Transform(a)
	if x != 1 || y != 2 || z != 3 {
		t.Errorf("identity transform moved atom to (%v,%v,%v)", x, y, z)
	}
}

func TestTranslationOnlyPose(t *testing.T) {
	a := Atom{X: 1, Y: 0, Z: -1}
	x, y, z := Pose{TX: 10, TY: 20, TZ: 30}.Transform(a)
	if x != 11 || y != 20 || z != 29 {
		t.Errorf("translation = (%v,%v,%v)", x, y, z)
	}
}

// Rotation preserves distance from the origin.
func TestRotationIsometry(t *testing.T) {
	a := Atom{X: 3, Y: -4, Z: 12} // |a| = 13
	p := Pose{RotX: 0.7, RotY: -1.2, RotZ: 2.9}
	x, y, z := p.Transform(a)
	r := math.Sqrt(float64(x*x + y*y + z*z))
	if math.Abs(r-13) > 1e-4 {
		t.Errorf("rotation changed radius: %v", r)
	}
}

// Translating protein and pose by the same offset leaves the energy
// unchanged (the potential depends only on relative positions).
func TestEnergyTranslationInvariance(t *testing.T) {
	d := smallDeck(2)
	pose := d.Poses[0]
	e1 := PoseEnergy(d, pose)

	const off = 5.0
	shifted := &Deck{Ligand: d.Ligand, Poses: d.Poses}
	for _, pa := range d.Protein {
		pa.X += off
		pa.Y += off
		pa.Z += off
		shifted.Protein = append(shifted.Protein, pa)
	}
	pose2 := pose
	pose2.TX += off
	pose2.TY += off
	pose2.TZ += off
	e2 := PoseEnergy(shifted, pose2)
	if math.Abs(float64(e1-e2)) > 1e-2*math.Abs(float64(e1))+1e-3 {
		t.Errorf("energy not translation invariant: %v vs %v", e1, e2)
	}
}

// Zero charges kill the electrostatic term: energy becomes purely steric
// and strictly non-negative.
func TestStericOnlyEnergyNonNegative(t *testing.T) {
	d := smallDeck(3)
	for i := range d.Ligand {
		d.Ligand[i].Charge = 0
	}
	for _, e := range Screen(d) {
		if e < 0 {
			t.Fatalf("steric-only energy negative: %v", e)
		}
	}
}

// Far-separated molecules have zero energy (cutoff).
func TestCutoff(t *testing.T) {
	d := smallDeck(4)
	pose := Pose{TX: 1000}
	if e := PoseEnergy(d, pose); e != 0 {
		t.Errorf("far pose energy = %v, want 0", e)
	}
}

func TestScreenLength(t *testing.T) {
	d := smallDeck(5)
	if got := len(Screen(d)); got != len(d.Poses) {
		t.Errorf("screen returned %d energies", got)
	}
}

// Table VI reproduction: the one-stack/one-GPU FOMs within 10%.
func TestFOMTableVI(t *testing.T) {
	cases := []struct {
		sys  topology.System
		want float64
	}{
		{topology.Aurora, 293.02},
		{topology.Dawn, 366.17},
		{topology.JLSEH100, 638.40},
		{topology.JLSEMI250, 193.66},
	}
	for _, c := range cases {
		got, sweep := FOM(c.sys)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.10 {
			t.Errorf("%v FOM = %.1f, paper %.1f (%.1f%% off)", c.sys, got, c.want, rel*100)
		}
		if len(sweep) != 15 {
			t.Errorf("%v sweep has %d points", c.sys, len(sweep))
		}
		// The reported FOM is the best of the sweep.
		for _, s := range sweep {
			if s.GInterS > got+1e-9 {
				t.Errorf("%v: sweep point %v beats reported FOM", c.sys, s)
			}
		}
	}
}

// Figure 2 shape: Aurora ≈ 0.80× Dawn (293.02/366.17), close to the
// expected 0.88 bar.
func TestAuroraDawnRatio(t *testing.T) {
	a, _ := FOM(topology.Aurora)
	d, _ := FOM(topology.Dawn)
	ratio := a / d
	want := paper.TableVI[paper.MiniBUDE][topology.Aurora].OneStack /
		paper.TableVI[paper.MiniBUDE][topology.Dawn].OneStack
	if math.Abs(ratio-want) > 0.05 {
		t.Errorf("Aurora/Dawn = %.3f, paper %.3f", ratio, want)
	}
}

// The mechanistic sweep surface: the register-pressure cliff makes very
// high ppwi worse than moderate ppwi, and low ppwi pays loop overhead, so
// the optimum is interior — the reason the paper sweeps at all.
func TestSweepSurfaceHasInteriorOptimum(t *testing.T) {
	res := sched.PVCCoreResources()
	lo := sweepEff(res, 56, 1, 128)
	mid := sweepEff(res, 56, 4, 128)
	hi := sweepEff(res, 56, 16, 128)
	if !(mid > lo) {
		t.Errorf("ppwi=4 (%v) should beat ppwi=1 (%v): loop overhead", mid, lo)
	}
	if !(mid > hi) {
		t.Errorf("ppwi=4 (%v) should beat ppwi=16 (%v): register cliff", mid, hi)
	}
}

func TestSweepPointString(t *testing.T) {
	s := SweepPoint{PPWI: 4, WGSize: 128, GInterS: 293.0}
	if s.String() == "" {
		t.Error("empty string")
	}
}
