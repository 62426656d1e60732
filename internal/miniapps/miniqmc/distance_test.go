package miniqmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomElectrons(n int, seed int64) []Electron {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Electron, n)
	for i := range out {
		out[i] = Electron{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return out
}

func TestDistanceTableBasics(t *testing.T) {
	if _, err := NewDistanceTable(nil); err == nil {
		t.Error("empty configuration should fail")
	}
	el := randomElectrons(8, 1)
	tab, err := NewDistanceTable(el)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry and zero diagonal.
	for i := 0; i < 8; i++ {
		if tab.Dist(i, i) != 0 {
			t.Errorf("diagonal %d nonzero", i)
		}
		for j := 0; j < 8; j++ {
			if tab.Dist(i, j) != tab.Dist(j, i) {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// Minimum-image convention: distances never exceed half the box diagonal.
func TestMinimumImageBound(t *testing.T) {
	el := randomElectrons(20, 2)
	tab, _ := NewDistanceTable(el)
	bound := math.Sqrt(3*0.5*0.5) + 1e-12
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if tab.Dist(i, j) > bound {
				t.Fatalf("distance %v exceeds minimum-image bound %v", tab.Dist(i, j), bound)
			}
		}
	}
	// Near-boundary pair wraps: electrons at x=0.01 and x=0.99 are 0.02
	// apart, not 0.98.
	pair := []Electron{{0.01, 0.5, 0.5}, {0.99, 0.5, 0.5}}
	tp, _ := NewDistanceTable(pair)
	if math.Abs(tp.Dist(0, 1)-0.02) > 1e-12 {
		t.Errorf("wrap distance = %v, want 0.02", tp.Dist(0, 1))
	}
}

// The O(Ne) incremental update matches a full rebuild after a move.
func TestUpdateRowMatchesRebuild(t *testing.T) {
	el := randomElectrons(12, 3)
	tab, _ := NewDistanceTable(el)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 20; step++ {
		moved := rng.Intn(12)
		el[moved] = Electron{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := tab.UpdateRow(el, moved); err != nil {
			t.Fatal(err)
		}
		fresh, _ := NewDistanceTable(el)
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				if math.Abs(tab.Dist(i, j)-fresh.Dist(i, j)) > 1e-14 {
					t.Fatalf("step %d: table diverged at (%d,%d)", step, i, j)
				}
			}
		}
	}
	if err := tab.UpdateRow(el, 99); err == nil {
		t.Error("out-of-range move should fail")
	}
	if err := tab.UpdateRow(el[:3], 0); err == nil {
		t.Error("mismatched configuration should fail")
	}
}

func TestMinDistAndJastrow(t *testing.T) {
	el := []Electron{{0.1, 0.1, 0.1}, {0.2, 0.1, 0.1}, {0.7, 0.7, 0.7}}
	tab, _ := NewDistanceTable(el)
	if math.Abs(tab.MinDist()-0.1) > 1e-12 {
		t.Errorf("min dist = %v, want 0.1", tab.MinDist())
	}
	j := tab.JastrowFactor(0.5, 1.0)
	if j >= 0 {
		t.Errorf("Jastrow log-factor = %v, want negative", j)
	}
	// Electrons pushed apart weaken the correlation (factor rises
	// toward 0).
	far := []Electron{{0.1, 0.1, 0.1}, {0.6, 0.1, 0.1}, {0.1, 0.6, 0.6}}
	tf, _ := NewDistanceTable(far)
	if !(tf.JastrowFactor(0.5, 1.0) > j) {
		t.Error("more separated electrons should have larger (less negative) Jastrow")
	}
}

// Property: periodic distance is translation invariant under a global
// shift.
func TestPeriodicTranslationInvariance(t *testing.T) {
	f := func(seed int64, shiftRaw uint8) bool {
		el := randomElectrons(6, seed)
		shift := float64(shiftRaw) / 37.0
		shifted := make([]Electron, len(el))
		for i, e := range el {
			shifted[i] = Electron{e.X + shift, e.Y + shift, e.Z + shift}
		}
		a, err := NewDistanceTable(el)
		if err != nil {
			return false
		}
		b, err := NewDistanceTable(shifted)
		if err != nil {
			return false
		}
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if math.Abs(a.Dist(i, j)-b.Dist(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
