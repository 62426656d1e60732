package openmc

import (
	"math"
	"testing"
)

func TestEigenvalueValidation(t *testing.T) {
	if _, err := SolveEigenvalue(EigenvalueOptions{}); err == nil {
		t.Error("nil material should fail")
	}
	m := TwoGroupFuel()
	if _, err := SolveEigenvalue(EigenvalueOptions{Material: m, Thickness: -1, Particles: 10, Active: 1}); err == nil {
		t.Error("negative thickness should fail")
	}
	if _, err := SolveEigenvalue(EigenvalueOptions{Material: m, Thickness: 10, Particles: 0, Active: 1}); err == nil {
		t.Error("zero particles should fail")
	}
	bad := TwoGroupFuel()
	bad.Total[0] = 99
	if _, err := SolveEigenvalue(EigenvalueOptions{Material: bad, Thickness: 10, Particles: 10, Active: 1}); err == nil {
		t.Error("invalid material should fail")
	}
}

// A very thick slab's k-effective approaches the analytic k-infinity.
func TestEigenvalueThickSlabApproachesKInf(t *testing.T) {
	m := TwoGroupFuel()
	res, err := SolveEigenvalue(EigenvalueOptions{
		Material: m, Thickness: 3000, Particles: 3000, Inactive: 5, Active: 15, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := KInfinity(m)
	if math.Abs(res.K-want) > 0.04*want {
		t.Errorf("thick-slab k-eff = %.4f ± %.4f, want ~%.4f", res.K, res.KStd, want)
	}
	if len(res.BatchK) != 15 {
		t.Errorf("active batches = %d", len(res.BatchK))
	}
}

// Leakage monotonicity: k-effective increases with slab thickness.
func TestEigenvalueKIncreasesWithThickness(t *testing.T) {
	m := TwoGroupFuel()
	kOf := func(th float64) float64 {
		res, err := SolveEigenvalue(EigenvalueOptions{
			Material: m, Thickness: th, Particles: 2000, Inactive: 4, Active: 10, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.K
	}
	thin := kOf(3)
	mid := kOf(15)
	thick := kOf(300)
	if !(thin < mid && mid < thick) {
		t.Errorf("k not monotone in thickness: %.3f, %.3f, %.3f", thin, mid, thick)
	}
	// A 3 cm slab of this fuel leaks heavily: subcritical.
	if thin >= 1 {
		t.Errorf("thin slab k = %.3f, want < 1", thin)
	}
	// 300 cm is essentially infinite: supercritical (k∞ = 1.125).
	if thick <= 1 {
		t.Errorf("thick slab k = %.3f, want > 1", thick)
	}
}

// Criticality search sanity: some thickness in between is critical; find
// it by bisection on the Monte Carlo estimate with loose tolerance.
func TestCriticalThicknessBisection(t *testing.T) {
	m := TwoGroupFuel()
	kOf := func(th float64) float64 {
		res, err := SolveEigenvalue(EigenvalueOptions{
			Material: m, Thickness: th, Particles: 1500, Inactive: 4, Active: 10, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.K
	}
	lo, hi := 3.0, 300.0
	for i := 0; i < 8; i++ {
		mid := (lo + hi) / 2
		if kOf(mid) < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	crit := (lo + hi) / 2
	k := kOf(crit)
	if math.Abs(k-1) > 0.08 {
		t.Errorf("bisected critical thickness %.1f cm has k = %.3f, want ~1", crit, k)
	}
}

func TestEigenvalueDeterministic(t *testing.T) {
	m := TwoGroupFuel()
	opt := EigenvalueOptions{Material: m, Thickness: 50, Particles: 500, Inactive: 2, Active: 5, Seed: 3}
	a, err := SolveEigenvalue(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveEigenvalue(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K {
		t.Error("same seed must give identical k")
	}
}
