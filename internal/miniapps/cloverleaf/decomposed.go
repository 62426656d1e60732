//pvclint:ignore testonly DESIGN §3 X3 decomposed CloverLeaf: cloverleaf.Decomposed
package cloverleaf

import (
	"fmt"
	"math"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/mpirt"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// Decomposed is a domain-decomposed run of the hydro solver: the global
// grid is split into vertical strips with one-cell halos, stepped with
// explicit halo exchange exactly like CloverLeaf's MPI decomposition. The
// decomposition is bit-for-bit equivalent to the monolithic solver (the
// tests assert it), which is the correctness argument for the weak-scaled
// Table VI runs.
type Decomposed struct {
	strips []*State
	// local interior width of each strip and its ghost offsets.
	widths   []int
	hasLeft  []bool
	hasRight []bool
	nxGlobal int
	ny       int
}

// NewDecomposed splits a global state into k vertical strips.
func NewDecomposed(global *State, k int) (*Decomposed, error) {
	if k < 1 || k > global.Nx/2 {
		return nil, fmt.Errorf("cloverleaf: cannot split nx=%d into %d strips", global.Nx, k)
	}
	if global.periodic {
		return nil, fmt.Errorf("cloverleaf: decomposition implemented for reflective boundaries")
	}
	d := &Decomposed{nxGlobal: global.Nx, ny: global.Ny}
	start := 0
	for s := 0; s < k; s++ {
		w := global.Nx / k
		if s < global.Nx%k {
			w++
		}
		hasL := s > 0
		hasR := s < k-1
		nxLocal := w
		if hasL {
			nxLocal++
		}
		if hasR {
			nxLocal++
		}
		st, err := NewState(nxLocal, global.Ny, global.Dx, global.Dy, false)
		if err != nil {
			return nil, err
		}
		// Copy interior cells from the global grid.
		off := 0
		if hasL {
			off = 1
		}
		for j := 0; j < global.Ny; j++ {
			for i := 0; i < w; i++ {
				gk := j*global.Nx + (start + i)
				lk := j*nxLocal + (off + i)
				st.Rho[lk] = global.Rho[gk]
				st.MomX[lk] = global.MomX[gk]
				st.MomY[lk] = global.MomY[gk]
				st.E[lk] = global.E[gk]
			}
		}
		d.strips = append(d.strips, st)
		d.widths = append(d.widths, w)
		d.hasLeft = append(d.hasLeft, hasL)
		d.hasRight = append(d.hasRight, hasR)
		start += w
	}
	d.ExchangeHalos()
	return d, nil
}

// Ranks returns the number of strips.
func (d *Decomposed) Ranks() int { return len(d.strips) }

// interiorOffset returns the local x index of strip s's first interior
// column.
func (d *Decomposed) interiorOffset(s int) int {
	if d.hasLeft[s] {
		return 1
	}
	return 0
}

// copyColumn copies column xs of src into column xd of dst.
func copyColumn(dst *State, xd int, src *State, xs int) {
	for j := 0; j < src.Ny; j++ {
		dk := j*dst.Nx + xd
		sk := j*src.Nx + xs
		dst.Rho[dk] = src.Rho[sk]
		dst.MomX[dk] = src.MomX[sk]
		dst.MomY[dk] = src.MomY[sk]
		dst.E[dk] = src.E[sk]
	}
}

// ExchangeHalos refreshes every internal ghost column from its
// neighbour's edge interior column — the MPI halo exchange.
func (d *Decomposed) ExchangeHalos() {
	for s := 0; s+1 < len(d.strips); s++ {
		left, right := d.strips[s], d.strips[s+1]
		lOff := d.interiorOffset(s)
		rOff := d.interiorOffset(s + 1)
		// Left strip's right ghost ← right strip's first interior column.
		copyColumn(left, lOff+d.widths[s], right, rOff)
		// Right strip's left ghost ← left strip's last interior column.
		copyColumn(right, rOff-1, left, lOff+d.widths[s]-1)
	}
}

// Dt returns the global CFL timestep: the minimum over strips (the MPI
// allreduce of calc_dt).
func (d *Decomposed) Dt() float64 {
	min := math.Inf(1)
	for _, st := range d.strips {
		if dt := st.Dt(); dt < min {
			min = dt
		}
	}
	return min
}

// Step advances the decomposed state one step (dt <= 0 uses the global
// CFL value): halo exchange, x-sweeps everywhere, then y-sweeps — the
// same ordering as the monolithic solver, so results match exactly.
func (d *Decomposed) Step(dt float64) float64 {
	if dt <= 0 {
		dt = d.Dt()
	}
	d.ExchangeHalos()
	for _, st := range d.strips {
		st.sweep(0, dt)
	}
	if d.ny > 1 {
		for _, st := range d.strips {
			st.sweep(1, dt)
		}
	}
	return dt
}

// Gather reassembles the global state from the strip interiors.
func (d *Decomposed) Gather() (*State, error) {
	out, err := NewState(d.nxGlobal, d.ny, d.strips[0].Dx, d.strips[0].Dy, false)
	if err != nil {
		return nil, err
	}
	start := 0
	for s, st := range d.strips {
		off := d.interiorOffset(s)
		for j := 0; j < d.ny; j++ {
			for i := 0; i < d.widths[s]; i++ {
				gk := j*d.nxGlobal + (start + i)
				lk := j*st.Nx + (off + i)
				out.Rho[gk] = st.Rho[lk]
				out.MomX[gk] = st.MomX[lk]
				out.MomY[gk] = st.MomY[lk]
				out.E[gk] = st.E[lk]
			}
		}
		start += d.widths[s]
	}
	return out, nil
}

// WeakScalingBreakdownOn runs the weak-scaled timing model on the
// simulated node: each of n ranks owns an edge² grid; every step
// launches the bandwidth-bound hydro kernels, exchanges halos with its
// grid neighbours and joins the dt allreduce over the real fabric. It
// returns total and communication-only time, quantifying how little of
// the weak-scaling loss MPI itself explains (the rest is node-level
// jitter the scaling anchors carry). The caller supplies the machine,
// so a runner cell observes the run (kernel spans, halo flows,
// allreduce traffic) through the machine's attached recorder.
func WeakScalingBreakdownOn(m *gpusim.Machine, n, edge, steps int) (total, comm units.Seconds, err error) {
	c, err := mpirt.NewComm(m, n)
	if err != nil {
		return 0, 0, err
	}
	// Per-step per-rank state.
	haloBytes := units.Bytes(edge * fieldsPerHalo * 8)
	kernelProf := perfmodel.Profile{
		Name:      "hydro-step",
		MemBytes:  units.Bytes(float64(edge) * float64(edge) * BytesPerCellStep),
		Kind:      perfmodel.KindStream,
		Precision: 0,
	}
	var commTime units.Seconds
	// Per-rank finish times; the makespan is their max.
	finishes := make([]units.Seconds, c.Size())
	runErr := c.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
		for step := 0; step < steps; step++ {
			r.Stack.LaunchKernel(p, kernelProf)
			t0 := p.Now()
			// Halo exchange with ±1 neighbours in rank order.
			if r.Rank() > 0 {
				if err := r.Sendrecv(p, r.Rank()-1, r.Rank()-1, 1000+step, haloBytes); err != nil {
					panic(err)
				}
			}
			if r.Rank() < r.Size()-1 {
				if err := r.Sendrecv(p, r.Rank()+1, r.Rank()+1, 1000+step, haloBytes); err != nil {
					panic(err)
				}
			}
			// dt reduction.
			if err := r.Allreduce(p, 8, 5000+step*100); err != nil {
				panic(err)
			}
			if r.Rank() == 0 {
				commTime += p.Now() - t0
			}
		}
		finishes[r.Rank()] = p.Now()
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	return maxSeconds(finishes), commTime, nil
}

// fieldsPerHalo is the number of exchanged field arrays per halo column.
const fieldsPerHalo = 4

// maxSeconds returns the largest element (the slowest rank's finish).
func maxSeconds(ts []units.Seconds) units.Seconds {
	var m units.Seconds
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
