// Package cloverleaf reproduces the CloverLeaf mini-app (§V-A2): an
// explicit compressible-Euler hydrodynamics benchmark that is memory-
// bandwidth bound and weak-scaled with MPI. The solver here is a real
// 2-D dimension-split finite-volume scheme with HLL fluxes and an ideal
// gas EOS — the same four conservation laws CloverLeaf solves (density,
// momentum ×2, energy) with equivalent per-cell memory traffic; tests
// verify exact conservation, positivity, CFL stability and Sod shock-tube
// behaviour. The figure of merit (cells per second) on the simulated
// systems comes from the bandwidth model with the per-cell traffic
// measured from this solver's own sweep structure.
//
//pvclint:ignore testonly DESIGN §1 real, tested numerical kernels: hydro (State)
package cloverleaf

import (
	"fmt"
	"math"
)

// Gamma is the ideal-gas adiabatic index CloverLeaf uses.
const Gamma = 1.4

// State is the conserved state on a 2-D grid: density ρ, momenta ρu, ρv,
// total energy E per unit volume, row-major nx×ny.
type State struct {
	Nx, Ny   int
	Dx, Dy   float64
	Rho      []float64
	MomX     []float64
	MomY     []float64
	E        []float64
	periodic bool
}

// NewState allocates a grid with uniform initial conditions.
func NewState(nx, ny int, dx, dy float64, periodic bool) (*State, error) {
	if nx < 3 || ny < 1 || dx <= 0 || dy <= 0 {
		return nil, fmt.Errorf("cloverleaf: bad grid %dx%d (dx=%v, dy=%v)", nx, ny, dx, dy)
	}
	n := nx * ny
	return &State{
		Nx: nx, Ny: ny, Dx: dx, Dy: dy,
		Rho:      make([]float64, n),
		MomX:     make([]float64, n),
		MomY:     make([]float64, n),
		E:        make([]float64, n),
		periodic: periodic,
	}, nil
}

// SetPrimitive sets cell (i,j) from primitive variables (ρ, u, v, p).
func (s *State) SetPrimitive(i, j int, rho, u, v, p float64) {
	k := j*s.Nx + i
	s.Rho[k] = rho
	s.MomX[k] = rho * u
	s.MomY[k] = rho * v
	s.E[k] = p/(Gamma-1) + 0.5*rho*(u*u+v*v)
}

// Primitive returns (ρ, u, v, p) of cell (i,j).
func (s *State) Primitive(i, j int) (rho, u, v, p float64) {
	k := j*s.Nx + i
	rho = s.Rho[k]
	u = s.MomX[k] / rho
	v = s.MomY[k] / rho
	p = (Gamma - 1) * (s.E[k] - 0.5*rho*(u*u+v*v))
	return
}

// SoundSpeed returns the cell's sound speed.
func (s *State) SoundSpeed(i, j int) float64 {
	rho, _, _, p := s.Primitive(i, j)
	return math.Sqrt(Gamma * p / rho)
}

// TotalMass integrates ρ over the grid.
func (s *State) TotalMass() float64 {
	sum := 0.0
	for _, r := range s.Rho {
		sum += r
	}
	return sum * s.Dx * s.Dy
}

// TotalEnergy integrates E over the grid.
func (s *State) TotalEnergy() float64 {
	sum := 0.0
	for _, e := range s.E {
		sum += e
	}
	return sum * s.Dx * s.Dy
}

// CFL is the timestep safety factor ("calc_dt" in CloverLeaf).
const CFL = 0.4

// Dt returns the stable timestep from the CFL condition.
func (s *State) Dt() float64 {
	min := math.Inf(1)
	for j := 0; j < s.Ny; j++ {
		for i := 0; i < s.Nx; i++ {
			rho, u, v, p := s.Primitive(i, j)
			if rho <= 0 || p <= 0 {
				continue
			}
			c := math.Sqrt(Gamma * p / rho)
			dt := s.Dx / (math.Abs(u) + c)
			if s.Ny > 1 {
				if dty := s.Dy / (math.Abs(v) + c); dty < dt {
					dt = dty
				}
			}
			if dt < min {
				min = dt
			}
		}
	}
	return CFL * min
}

// flux4 is a 4-component flux or state vector.
type flux4 [4]float64

// hll computes the HLL flux across an interface with left/right conserved
// states, for the x-direction (dir=0) or y-direction (dir=1).
func hll(l, r flux4, dir int) flux4 {
	fl, sl := physFlux(l, dir)
	fr, sr := physFlux(r, dir)
	sMin := math.Min(sl[0], sr[0])
	sMax := math.Max(sl[1], sr[1])
	switch {
	case sMin >= 0:
		return fl
	case sMax <= 0:
		return fr
	default:
		var out flux4
		for k := 0; k < 4; k++ {
			out[k] = (sMax*fl[k] - sMin*fr[k] + sMin*sMax*(r[k]-l[k])) / (sMax - sMin)
		}
		return out
	}
}

// physFlux returns the physical Euler flux of a conserved state in the
// given direction and the (min, max) signal speeds u∓c.
func physFlux(q flux4, dir int) (flux4, [2]float64) {
	rho := q[0]
	u := q[1] / rho
	v := q[2] / rho
	p := (Gamma - 1) * (q[3] - 0.5*rho*(u*u+v*v))
	if p < 1e-12 {
		p = 1e-12
	}
	c := math.Sqrt(Gamma * p / rho)
	var un float64
	if dir == 0 {
		un = u
	} else {
		un = v
	}
	var f flux4
	f[0] = rho * un
	f[1] = q[1] * un
	f[2] = q[2] * un
	if dir == 0 {
		f[1] += p
	} else {
		f[2] += p
	}
	f[3] = (q[3] + p) * un
	return f, [2]float64{un - c, un + c}
}

// cell gathers the conserved state of cell index k.
func (s *State) cell(k int) flux4 {
	return flux4{s.Rho[k], s.MomX[k], s.MomY[k], s.E[k]}
}

func (s *State) setCell(k int, q flux4) {
	s.Rho[k], s.MomX[k], s.MomY[k], s.E[k] = q[0], q[1], q[2], q[3]
}

// index maps (i,j) with boundary handling: periodic wrap or reflective
// clamp.
func (s *State) index(i, j int) (int, bool) {
	reflectX := false
	if s.periodic {
		i = (i + s.Nx) % s.Nx
		j = (j + s.Ny) % s.Ny
	} else {
		if i < 0 {
			i = -i - 1
			reflectX = true
		}
		if i >= s.Nx {
			i = 2*s.Nx - i - 1
			reflectX = true
		}
		if j < 0 {
			j = -j - 1
		}
		if j >= s.Ny {
			j = 2*s.Ny - j - 1
		}
	}
	return j*s.Nx + i, reflectX
}

// neighbor returns the conserved state of logical cell (i,j), applying
// reflective velocity flips at solid walls.
func (s *State) neighbor(i, j int, dir int) flux4 {
	reflectY := !s.periodic && (j < 0 || j >= s.Ny)
	k, reflectX := s.index(i, j)
	q := s.cell(k)
	if reflectX {
		q[1] = -q[1]
	}
	if reflectY {
		q[2] = -q[2]
	}
	_ = dir
	return q
}

// Step advances the state by one dimension-split first-order step with
// the given dt and returns dt. Pass dt <= 0 to use the CFL timestep.
func (s *State) Step(dt float64) float64 {
	if dt <= 0 {
		dt = s.Dt()
	}
	s.sweep(0, dt)
	if s.Ny > 1 {
		s.sweep(1, dt)
	}
	return dt
}

// sweep applies the finite-volume update in one direction.
func (s *State) sweep(dir int, dt float64) {
	nx, ny := s.Nx, s.Ny
	var h float64
	if dir == 0 {
		h = s.Dx
	} else {
		h = s.Dy
	}
	out := make([]flux4, nx*ny)
	// Interface fluxes: cell k's update needs flux at its left/bottom and
	// right/top faces.
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			k := j*nx + i
			var lo, hi flux4
			if dir == 0 {
				lo = hll(s.neighbor(i-1, j, dir), s.cell(k), dir)
				hi = hll(s.cell(k), s.neighbor(i+1, j, dir), dir)
			} else {
				lo = hll(s.neighbor(i, j-1, dir), s.cell(k), dir)
				hi = hll(s.cell(k), s.neighbor(i, j+1, dir), dir)
			}
			q := s.cell(k)
			for c := 0; c < 4; c++ {
				q[c] -= dt / h * (hi[c] - lo[c])
			}
			out[k] = q
		}
	}
	for k, q := range out {
		s.setCell(k, q)
	}
}

// Sod initializes the classic Sod shock tube along x: (ρ,p) = (1, 1) on
// the left half, (0.125, 0.1) on the right, at rest.
func Sod(nx, ny int) (*State, error) {
	s, err := NewState(nx, ny, 1.0/float64(nx), 1.0/float64(max(ny, 1)), false)
	if err != nil {
		return nil, err
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i < nx/2 {
				s.SetPrimitive(i, j, 1.0, 0, 0, 1.0)
			} else {
				s.SetPrimitive(i, j, 0.125, 0, 0, 0.1)
			}
		}
	}
	return s, nil
}
