package rimp2

import (
	"errors"
	"math"
	"testing"

	"pvcsim/internal/topology"
)

// Table VI reproduction within 10%.
func TestFOMTableVI(t *testing.T) {
	cases := []struct {
		sys  topology.System
		n    int
		want float64
	}{
		{topology.Aurora, 1, 19.44},
		{topology.Aurora, 2, 38.50},
		{topology.Aurora, 12, 197.08},
		{topology.Dawn, 1, 24.57},
		{topology.Dawn, 2, 43.88},
		{topology.Dawn, 8, 164.71},
		{topology.JLSEH100, 1, 49.30},
		{topology.JLSEH100, 4, 168.97},
	}
	for _, c := range cases {
		got, err := FOM(c.sys, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-c.want) / c.want; rel > 0.10 {
			t.Errorf("%v n=%d: FOM %.2f, paper %.2f (%.1f%% off)", c.sys, c.n, got, c.want, rel*100)
		}
	}
}

// The MI250 row is absent, as in the paper.
func TestMI250Unsupported(t *testing.T) {
	_, err := FOM(topology.JLSEMI250, 1)
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("MI250 should report ErrUnsupported, got %v", err)
	}
}

func TestFOMValidation(t *testing.T) {
	if _, err := FOM(topology.Aurora, 0); err == nil {
		t.Error("0 ranks should fail")
	}
	if _, err := FOM(topology.Aurora, 13); err == nil {
		t.Error("13 ranks should fail")
	}
}

// Strong scaling: per-rank efficiency decreases with rank count
// (Amdahl-style), so FOM grows sublinearly.
func TestStrongScalingSublinear(t *testing.T) {
	f1, _ := FOM(topology.Aurora, 1)
	f6, _ := FOM(topology.Aurora, 6)
	f12, _ := FOM(topology.Aurora, 12)
	if !(f6 > f1 && f12 > f6) {
		t.Error("FOM should increase with ranks")
	}
	if f12 >= 12*f1 {
		t.Error("scaling should be sublinear")
	}
	// Intermediate efficiency lies between the anchors.
	eff6 := f6 / (6 * f1)
	if eff6 <= 0.845 || eff6 >= 0.99 {
		t.Errorf("6-rank efficiency = %v, want between anchors", eff6)
	}
}
