package miniqmc

import (
	"math"
	"testing"

	"pvcsim/internal/topology"
)

// Table VI reproduction: every published miniQMC cell within 10%.
func TestFOMTableVI(t *testing.T) {
	cases := []struct {
		sys  topology.System
		n    int
		want float64
	}{
		{topology.Aurora, 1, 3.16},
		{topology.Aurora, 2, 5.39},
		{topology.Aurora, 12, 15.64},
		{topology.Dawn, 1, 3.72},
		{topology.Dawn, 2, 6.85},
		{topology.Dawn, 8, 16.28},
		{topology.JLSEH100, 1, 3.89},
		{topology.JLSEH100, 4, 12.32},
		{topology.JLSEMI250, 1, 0.50},
		{topology.JLSEMI250, 8, 0.90},
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

// The paper's anomaly: "the FOM of miniQMC on six GPUs on Aurora is less
// than that on four GPUs on Dawn" — CPU congestion, not GPU capability.
func TestAuroraNodeBelowDawnNode(t *testing.T) {
	aurora, err := FOM(topology.Aurora, 12)
	if err != nil {
		t.Fatal(err)
	}
	dawn, err := FOM(topology.Dawn, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(aurora < dawn) {
		t.Errorf("Aurora node (%v) should score below Dawn node (%v)", aurora, dawn)
	}
	// And the slowdown factor is indeed worse on Aurora's busier sockets.
	sa, _ := slowdown(topology.Aurora, topology.NewAurora(), 12)
	sd, _ := slowdown(topology.Dawn, topology.NewDawn(), 8)
	if !(sa > sd) {
		t.Errorf("Aurora slowdown %v should exceed Dawn %v", sa, sd)
	}
}

// "For miniQMC, H100 performance is on par with a single PVC Stack."
func TestH100OnParWithPVCStack(t *testing.T) {
	h, _ := FOM(topology.JLSEH100, 1)
	a, _ := FOM(topology.Aurora, 1)
	if ratio := h / a; ratio < 1.0 || ratio > 1.5 {
		t.Errorf("H100/Aurora-stack = %v, want ~1.2", ratio)
	}
	// MI250 an order of magnitude slower than H100 (software).
	m, _ := FOM(topology.JLSEMI250, 1)
	if h/m < 6 {
		t.Errorf("H100/MI250 = %v, want large (software inefficiency)", h/m)
	}
}

func TestFOMValidation(t *testing.T) {
	if _, err := FOM(topology.Aurora, 0); err == nil {
		t.Error("0 ranks should fail")
	}
	if _, err := FOM(topology.Aurora, 99); err == nil {
		t.Error("99 ranks should fail")
	}
}
