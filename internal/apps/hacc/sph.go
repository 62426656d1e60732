//pvclint:ignore testonly DESIGN §3 X15 SPH gas dynamics: hacc.Gas
package hacc

import (
	"fmt"
	"math"
)

// SPH gas dynamics: the hydrodynamics half of CRK-HACC. An adiabatic
// ideal-gas SPH formulation with the symmetric pressure force
//
//	a_i = −Σ_j m_j (P_i/ρ_i² + P_j/ρ_j²) ∇W_ij
//
// and the matching internal-energy equation, which conserves linear
// momentum exactly and total energy to integrator order.

// GasGamma is the adiabatic index of the gas.
const GasGamma = 5.0 / 3.0

// Gas is an SPH particle system with thermal state.
type Gas struct {
	Parts []Particle
	U     []float64 // specific internal energy per particle
	H     float64   // smoothing length
}

// NewGas wraps particles with uniform specific internal energy u0.
func NewGas(parts []Particle, h, u0 float64) (*Gas, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("hacc: empty gas")
	}
	if h <= 0 {
		return nil, fmt.Errorf("hacc: non-positive smoothing length")
	}
	if u0 <= 0 {
		return nil, fmt.Errorf("hacc: non-positive internal energy")
	}
	u := make([]float64, len(parts))
	for i := range u {
		u[i] = u0
	}
	return &Gas{Parts: parts, U: u, H: h}, nil
}

// kernelGradMag returns dW/dr of the cubic spline at separation r.
func kernelGradMag(r, h float64) float64 {
	if h <= 0 || r <= 0 {
		return 0
	}
	q := r / h
	sigma := 1 / (math.Pi * h * h * h)
	switch {
	case q < 1:
		return sigma * (-3*q + 2.25*q*q) / h
	case q < 2:
		d := 2 - q
		return sigma * (-0.75 * d * d) / h
	default:
		return 0
	}
}

// Pressures returns the particle pressures from the adiabatic EOS
// P = (γ−1) ρ u, given densities.
func (g *Gas) Pressures(rho []float64) []float64 {
	out := make([]float64, len(g.Parts))
	for i := range out {
		out[i] = (GasGamma - 1) * rho[i] * g.U[i]
	}
	return out
}

// forcesAndHeating computes the symmetric SPH accelerations and du/dt.
func (g *Gas) forcesAndHeating() (acc [][3]float64, dudt []float64, rho []float64) {
	n := len(g.Parts)
	rho = SPHDensity(g.Parts, g.H)
	p := g.Pressures(rho)
	acc = make([][3]float64, n)
	dudt = make([]float64, n)
	for i := 0; i < n; i++ {
		pi := &g.Parts[i]
		for j := i + 1; j < n; j++ {
			pj := &g.Parts[j]
			dx := pi.X - pj.X
			dy := pi.Y - pj.Y
			dz := pi.Z - pj.Z
			r := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if r <= 0 || r >= 2*g.H {
				continue
			}
			gw := kernelGradMag(r, g.H)
			term := p[i]/(rho[i]*rho[i]) + p[j]/(rho[j]*rho[j])
			// ∇W points along r̂ from j to i.
			fx := term * gw * dx / r
			fy := term * gw * dy / r
			fz := term * gw * dz / r
			// a_i = −m_j ∇W term (gw < 0 inside the kernel, so the signs
			// below push particles apart under positive pressure).
			acc[i][0] -= pj.Mass * fx
			acc[i][1] -= pj.Mass * fy
			acc[i][2] -= pj.Mass * fz
			acc[j][0] += pi.Mass * fx
			acc[j][1] += pi.Mass * fy
			acc[j][2] += pi.Mass * fz
			// Heating: du_i/dt = ½ m_j term v_ij·∇W_ij.
			vx := pi.VX - pj.VX
			vy := pi.VY - pj.VY
			vz := pi.VZ - pj.VZ
			vdotw := (vx*dx + vy*dy + vz*dz) / r * gw
			dudt[i] += 0.5 * pj.Mass * term * vdotw
			dudt[j] += 0.5 * pi.Mass * term * vdotw
		}
	}
	return acc, dudt, rho
}

// Step advances the gas one kick-drift-kick step (hydro forces only).
func (g *Gas) Step(dt float64) {
	acc, dudt, _ := g.forcesAndHeating()
	for i := range g.Parts {
		p := &g.Parts[i]
		p.VX += 0.5 * dt * acc[i][0]
		p.VY += 0.5 * dt * acc[i][1]
		p.VZ += 0.5 * dt * acc[i][2]
		g.U[i] += 0.5 * dt * dudt[i]
		if g.U[i] < 1e-12 {
			g.U[i] = 1e-12
		}
		p.X += dt * p.VX
		p.Y += dt * p.VY
		p.Z += dt * p.VZ
	}
	acc, dudt, _ = g.forcesAndHeating()
	for i := range g.Parts {
		p := &g.Parts[i]
		p.VX += 0.5 * dt * acc[i][0]
		p.VY += 0.5 * dt * acc[i][1]
		p.VZ += 0.5 * dt * acc[i][2]
		g.U[i] += 0.5 * dt * dudt[i]
		if g.U[i] < 1e-12 {
			g.U[i] = 1e-12
		}
	}
}

// TotalEnergy returns kinetic plus thermal energy.
func (g *Gas) TotalEnergy() float64 {
	e := 0.0
	for i, p := range g.Parts {
		e += 0.5*p.Mass*(p.VX*p.VX+p.VY*p.VY+p.VZ*p.VZ) + p.Mass*g.U[i]
	}
	return e
}

// Momentum returns total linear momentum.
func (g *Gas) Momentum() [3]float64 {
	var m [3]float64
	for _, p := range g.Parts {
		m[0] += p.Mass * p.VX
		m[1] += p.Mass * p.VY
		m[2] += p.Mass * p.VZ
	}
	return m
}

// SoundSpeed returns the gas sound speed at particle i given densities.
func (g *Gas) SoundSpeed(rho []float64, i int) float64 {
	p := (GasGamma - 1) * rho[i] * g.U[i]
	if rho[i] <= 0 {
		return 0
	}
	return math.Sqrt(GasGamma * p / rho[i])
}
