// Package hacc reproduces the CRK-HACC application study (§VI-A2): an
// N-body cosmology code with conservative-reproducing-kernel SPH gas
// dynamics. The gravity integrator (kick-drift-kick leapfrog with
// softened direct short-range forces) and the SPH density/kernel
// machinery are implemented for real and verified by conservation laws
// and analytic orbits in the tests. The figure of merit (particle-steps
// per second, in the paper's normalized units) combines the GPU FP32
// term with the host-side CPU memory-bandwidth term, "CPU memory BW
// bound, GPU FP32 flop-rate bound" (Table V).
//
//pvclint:ignore testonly DESIGN §1 real, tested numerical kernels: N-body/SPH
package hacc

import (
	"fmt"
	"math"
	"math/rand"
)

// Particle is one simulation particle.
type Particle struct {
	X, Y, Z    float64
	VX, VY, VZ float64
	Mass       float64
}

// System is a particle set under self-gravity.
type System struct {
	Particles []Particle
	G         float64 // gravitational constant (code units)
	Softening float64 // Plummer softening length
}

// NewRandomSystem builds n particles in a unit box with small random
// velocities, deterministic in seed.
func NewRandomSystem(n int, seed int64) (*System, error) {
	if n < 2 {
		return nil, fmt.Errorf("hacc: need at least 2 particles")
	}
	// The softening is deliberately generous (a twentieth of the box):
	// random uniform particles produce arbitrarily close encounters, and
	// cosmological codes likewise soften below the interparticle spacing.
	rng := rand.New(rand.NewSource(seed))
	s := &System{G: 1, Softening: 0.05}
	for i := 0; i < n; i++ {
		s.Particles = append(s.Particles, Particle{
			X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64(),
			VX:   (rng.Float64() - 0.5) * 0.01,
			VY:   (rng.Float64() - 0.5) * 0.01,
			VZ:   (rng.Float64() - 0.5) * 0.01,
			Mass: 1.0 / float64(n),
		})
	}
	return s, nil
}

// Accelerations computes softened direct-sum gravity.
func (s *System) Accelerations() [][3]float64 {
	n := len(s.Particles)
	acc := make([][3]float64, n)
	e2 := s.Softening * s.Softening
	for i := 0; i < n; i++ {
		pi := &s.Particles[i]
		for j := i + 1; j < n; j++ {
			pj := &s.Particles[j]
			dx := pj.X - pi.X
			dy := pj.Y - pi.Y
			dz := pj.Z - pi.Z
			r2 := dx*dx + dy*dy + dz*dz + e2
			inv := 1 / (r2 * math.Sqrt(r2))
			fi := s.G * pj.Mass * inv
			fj := s.G * pi.Mass * inv
			acc[i][0] += fi * dx
			acc[i][1] += fi * dy
			acc[i][2] += fi * dz
			acc[j][0] -= fj * dx
			acc[j][1] -= fj * dy
			acc[j][2] -= fj * dz
		}
	}
	return acc
}

// Step advances the system one kick-drift-kick leapfrog step.
func (s *System) Step(dt float64) {
	acc := s.Accelerations()
	for i := range s.Particles {
		p := &s.Particles[i]
		p.VX += 0.5 * dt * acc[i][0]
		p.VY += 0.5 * dt * acc[i][1]
		p.VZ += 0.5 * dt * acc[i][2]
		p.X += dt * p.VX
		p.Y += dt * p.VY
		p.Z += dt * p.VZ
	}
	acc = s.Accelerations()
	for i := range s.Particles {
		p := &s.Particles[i]
		p.VX += 0.5 * dt * acc[i][0]
		p.VY += 0.5 * dt * acc[i][1]
		p.VZ += 0.5 * dt * acc[i][2]
	}
}

// Energy returns kinetic + potential energy.
func (s *System) Energy() float64 {
	var kin, pot float64
	n := len(s.Particles)
	e2 := s.Softening * s.Softening
	for i := 0; i < n; i++ {
		p := &s.Particles[i]
		kin += 0.5 * p.Mass * (p.VX*p.VX + p.VY*p.VY + p.VZ*p.VZ)
		for j := i + 1; j < n; j++ {
			q := &s.Particles[j]
			dx := q.X - p.X
			dy := q.Y - p.Y
			dz := q.Z - p.Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz + e2)
			pot -= s.G * p.Mass * q.Mass / r
		}
	}
	return kin + pot
}

// Momentum returns total momentum.
func (s *System) Momentum() [3]float64 {
	var m [3]float64
	for _, p := range s.Particles {
		m[0] += p.Mass * p.VX
		m[1] += p.Mass * p.VY
		m[2] += p.Mass * p.VZ
	}
	return m
}

// TwoBody builds a circular two-body problem with equal masses m at
// separation d: circular speed v = sqrt(G·m/(2d)) each, opposite
// directions.
func TwoBody(m, d float64) *System {
	v := math.Sqrt(1 * m / (2 * d))
	return &System{
		G:         1,
		Softening: 0,
		Particles: []Particle{
			{X: -d / 2, VY: -v, Mass: m},
			{X: d / 2, VY: v, Mass: m},
		},
	}
}

// --- CRK-SPH kernel machinery ---

// CubicSplineKernel is the standard SPH cubic spline W(r, h) in 3-D
// (Monaghan normalization 1/(π h³)).
func CubicSplineKernel(r, h float64) float64 {
	if h <= 0 {
		return 0
	}
	q := r / h
	sigma := 1 / (math.Pi * h * h * h)
	switch {
	case q < 1:
		return sigma * (1 - 1.5*q*q*(1-q/2))
	case q < 2:
		d := 2 - q
		return sigma * 0.25 * d * d * d
	default:
		return 0
	}
}

// SPHDensity estimates the density at each particle by kernel summation
// with smoothing length h.
func SPHDensity(parts []Particle, h float64) []float64 {
	n := len(parts)
	rho := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx := parts[i].X - parts[j].X
			dy := parts[i].Y - parts[j].Y
			dz := parts[i].Z - parts[j].Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			rho[i] += parts[j].Mass * CubicSplineKernel(r, h)
		}
	}
	return rho
}

// CRKCorrection computes the linear reproducing-kernel correction factors
// (A, B) of CRKSPH for each particle so that corrected interpolation
// reproduces constant fields exactly: A_i = 1 / Σ_j (m_j/ρ_j) W_ij.
func CRKCorrection(parts []Particle, rho []float64, h float64) []float64 {
	n := len(parts)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			dx := parts[i].X - parts[j].X
			dy := parts[i].Y - parts[j].Y
			dz := parts[i].Z - parts[j].Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if rho[j] > 0 {
				s += parts[j].Mass / rho[j] * CubicSplineKernel(r, h)
			}
		}
		if s > 0 {
			a[i] = 1 / s
		}
	}
	return a
}

// CRKInterpolate evaluates a corrected-kernel interpolation of the field
// values at particle i: Σ_j (m_j/ρ_j) f_j A_i W_ij. With the A
// correction it reproduces constant fields exactly — the defining
// property of the conservative reproducing kernel.
func CRKInterpolate(parts []Particle, rho, a, field []float64, h float64, i int) float64 {
	var s float64
	for j := range parts {
		dx := parts[i].X - parts[j].X
		dy := parts[i].Y - parts[j].Y
		dz := parts[i].Z - parts[j].Z
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if rho[j] > 0 {
			s += parts[j].Mass / rho[j] * field[j] * CubicSplineKernel(r, h)
		}
	}
	return a[i] * s
}
