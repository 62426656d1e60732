package cloverleaf

import (
	"math"
	"testing"

	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
)

// Table VI reproduction within 10%.
func TestFOMTableVI(t *testing.T) {
	cases := []struct {
		sys  topology.System
		n    int
		want float64
	}{
		{topology.Aurora, 1, 20.82},
		{topology.Aurora, 2, 40.41},
		{topology.Aurora, 12, 240.89},
		{topology.Dawn, 1, 22.46},
		{topology.Dawn, 2, 41.92},
		{topology.Dawn, 8, 167.15},
		{topology.JLSEH100, 1, 65.87},
		{topology.JLSEH100, 4, 261.37},
		{topology.JLSEMI250, 1, 25.71},
		{topology.JLSEMI250, 8, 192.68},
	}
	for _, c := range cases {
		got, err := FOM(c.sys, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-c.want) / c.want; rel > 0.10 {
			t.Errorf("%v n=%d: FOM %.1f, paper %.1f (%.1f%% off)", c.sys, c.n, got, c.want, rel*100)
		}
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

// Figure 3 shape: one PVC is ≈0.6× one H100 on CloverLeaf — the paper's
// lowest relative performance.
func TestPVCvsH100Ratio(t *testing.T) {
	pvc, _ := FOM(topology.Aurora, 2)
	h100, _ := FOM(topology.JLSEH100, 1)
	ratio := pvc / h100
	want := paper.TableVI[paper.CloverLeaf][topology.Aurora].OneGPU /
		paper.TableVI[paper.CloverLeaf][topology.JLSEH100].OneGPU
	if math.Abs(ratio-want) > 0.05 {
		t.Errorf("PVC/H100 = %.3f, paper %.3f", ratio, want)
	}
}
