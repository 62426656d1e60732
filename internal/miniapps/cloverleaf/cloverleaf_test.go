package cloverleaf

import (
	"math"
	"testing"

	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
)

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(2, 1, 1, 1, false); err == nil {
		t.Error("too-small grid should fail")
	}
	if _, err := NewState(10, 1, 0, 1, false); err == nil {
		t.Error("zero dx should fail")
	}
	s, err := NewState(10, 5, 0.1, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rho) != 50 {
		t.Error("allocation wrong")
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	s, _ := NewState(4, 4, 1, 1, false)
	s.SetPrimitive(2, 3, 1.5, 0.3, -0.2, 2.0)
	rho, u, v, p := s.Primitive(2, 3)
	if math.Abs(rho-1.5) > 1e-14 || math.Abs(u-0.3) > 1e-14 ||
		math.Abs(v+0.2) > 1e-14 || math.Abs(p-2.0) > 1e-13 {
		t.Errorf("roundtrip: %v %v %v %v", rho, u, v, p)
	}
	c := s.SoundSpeed(2, 3)
	want := math.Sqrt(Gamma * 2.0 / 1.5)
	if math.Abs(c-want) > 1e-13 {
		t.Errorf("sound speed = %v, want %v", c, want)
	}
}

// A uniform state is a fixed point of the scheme.
func TestUniformStateStationary(t *testing.T) {
	s, _ := NewState(16, 8, 0.1, 0.1, false)
	for j := 0; j < 8; j++ {
		for i := 0; i < 16; i++ {
			s.SetPrimitive(i, j, 1.0, 0, 0, 1.0)
		}
	}
	m0, e0 := s.TotalMass(), s.TotalEnergy()
	for step := 0; step < 10; step++ {
		s.Step(0)
	}
	rho, u, v, p := s.Primitive(7, 3)
	if math.Abs(rho-1) > 1e-12 || math.Abs(u) > 1e-12 || math.Abs(v) > 1e-12 || math.Abs(p-1) > 1e-12 {
		t.Errorf("uniform state drifted: %v %v %v %v", rho, u, v, p)
	}
	if math.Abs(s.TotalMass()-m0) > 1e-12 || math.Abs(s.TotalEnergy()-e0) > 1e-12 {
		t.Error("uniform state lost mass or energy")
	}
}

// With periodic boundaries the finite-volume update conserves mass and
// energy to machine precision (telescoping fluxes).
func TestExactConservationPeriodic(t *testing.T) {
	s, _ := NewState(32, 16, 0.05, 0.05, true)
	for j := 0; j < 16; j++ {
		for i := 0; i < 32; i++ {
			rho := 1.0 + 0.3*math.Sin(2*math.Pi*float64(i)/32)
			u := 0.1 * math.Cos(2*math.Pi*float64(j)/16)
			s.SetPrimitive(i, j, rho, u, -u, 1.0+0.2*rho)
		}
	}
	m0, e0 := s.TotalMass(), s.TotalEnergy()
	for step := 0; step < 50; step++ {
		s.Step(0)
	}
	if rel := math.Abs(s.TotalMass()-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drift %v", rel)
	}
	if rel := math.Abs(s.TotalEnergy()-e0) / e0; rel > 1e-12 {
		t.Errorf("energy drift %v", rel)
	}
}

// Reflective walls conserve mass (no flow through walls) but may exchange
// momentum with them.
func TestMassConservationReflective(t *testing.T) {
	s, err := Sod(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.TotalMass()
	for step := 0; step < 40; step++ {
		s.Step(0)
	}
	if rel := math.Abs(s.TotalMass()-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drift %v", rel)
	}
}

// Sod shock tube physics: the shock moves right, the contact follows,
// density stays within the initial bounds, and pressure/density remain
// positive everywhere.
func TestSodShockTube(t *testing.T) {
	nx := 200
	s, err := Sod(nx, 1)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := 0.0
	for elapsed < 0.15 {
		elapsed += s.Step(0)
	}
	for i := 0; i < nx; i++ {
		rho, _, _, p := s.Primitive(i, 0)
		if rho <= 0 || p <= 0 {
			t.Fatalf("negative state at %d: rho=%v p=%v", i, rho, p)
		}
		if rho > 1.0+1e-9 || rho < 0.125-1e-9 {
			t.Fatalf("density out of bounds at %d: %v", i, rho)
		}
	}
	// At t≈0.15 the shock front sits near x≈0.77 (analytic speed ~1.75
	// from x=0.5); first-order diffusion smears it, so check the density
	// at x=0.70 is well above the initial right state and at x=0.95 still
	// near 0.125.
	rho70, _, _, _ := s.Primitive(70*nx/100, 0)
	if rho70 < 0.2 {
		t.Errorf("post-shock density at x=0.70 = %v, want > 0.2", rho70)
	}
	rho95, _, _, _ := s.Primitive(95*nx/100, 0)
	if rho95 > 0.15 {
		t.Errorf("pre-shock density at x=0.95 = %v, want ~0.125", rho95)
	}
	// Flow moves right between the rarefaction and shock.
	_, u50, _, _ := s.Primitive(60*nx/100, 0)
	if u50 <= 0 {
		t.Errorf("post-shock velocity = %v, want > 0", u50)
	}
}

// The CFL timestep shrinks with grid spacing.
func TestDtScalesWithResolution(t *testing.T) {
	coarse, _ := Sod(50, 1)
	fine, _ := Sod(200, 1)
	if !(fine.Dt() < coarse.Dt()) {
		t.Errorf("fine dt %v should be below coarse dt %v", fine.Dt(), coarse.Dt())
	}
}

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
