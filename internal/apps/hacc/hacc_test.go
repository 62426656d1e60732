package hacc

import (
	"math"
	"testing"

	"pvcsim/internal/topology"
)

// Table VI: HACC full-node FOMs within 10%.
func TestFOMTableVI(t *testing.T) {
	cases := []struct {
		sys  topology.System
		want float64
	}{
		{topology.Aurora, 13.81},
		{topology.Dawn, 12.26},
		{topology.JLSEH100, 12.46},
		{topology.JLSEMI250, 10.70},
	}
	for _, c := range cases {
		got, err := FOM(c.sys)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-c.want) / c.want; rel > 0.10 {
			t.Errorf("%v: FOM %.2f, paper %.2f (%.1f%% off)", c.sys, got, c.want, rel*100)
		}
	}
	// Ordering: Aurora > H100 > MI250 (Table VI).
	a, _ := FOM(topology.Aurora)
	h, _ := FOM(topology.JLSEH100)
	m, _ := FOM(topology.JLSEMI250)
	if !(a > h && h > m) {
		t.Errorf("ordering wrong: %v %v %v", a, h, m)
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	for _, sys := range topology.AllSystems() {
		g, c := Breakdown(sys)
		if math.Abs(g+c-1) > 1e-12 {
			t.Errorf("%v breakdown sums to %v", sys, g+c)
		}
		if g <= 0 || c <= 0 {
			t.Errorf("%v breakdown has non-positive fraction", sys)
		}
	}
}

func TestRunConfigConstants(t *testing.T) {
	if Particles12Rank != 221184000 {
		t.Errorf("2×480³ = %d", Particles12Rank)
	}
	if Particles8Rank != 128000000 {
		t.Errorf("2×400³ = %d", Particles8Rank)
	}
}
