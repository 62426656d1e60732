//pvclint:ignore testonly DESIGN §3 X13 QMC distance tables: miniqmc.DistanceTable
package miniqmc

import (
	"fmt"
	"math"
)

// Electron is one particle position in the unit cube.
type Electron struct{ X, Y, Z float64 }

// DistanceTable is the electron-electron distance structure miniQMC
// maintains alongside the spline evaluations: an Ne×Ne table of minimum-
// image distances in the periodic unit cube, updated incrementally as
// single electrons move (O(Ne) per accepted move versus O(Ne²) rebuild).
type DistanceTable struct {
	N int
	d []float64 // row-major, d[i*N+j] = |r_i − r_j| (minimum image)
}

// minImage returns the minimum-image displacement of a in [-0.5, 0.5).
func minImage(a float64) float64 {
	a -= math.Round(a)
	return a
}

// periodicDist returns the minimum-image distance of two electrons.
func periodicDist(a, b Electron) float64 {
	dx := minImage(a.X - b.X)
	dy := minImage(a.Y - b.Y)
	dz := minImage(a.Z - b.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// NewDistanceTable builds the full table for a configuration.
func NewDistanceTable(elecs []Electron) (*DistanceTable, error) {
	n := len(elecs)
	if n < 1 {
		return nil, fmt.Errorf("miniqmc: empty electron configuration")
	}
	t := &DistanceTable{N: n, d: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := periodicDist(elecs[i], elecs[j])
			t.d[i*n+j] = r
			t.d[j*n+i] = r
		}
	}
	return t, nil
}

// Dist returns the tabulated distance between electrons i and j.
func (t *DistanceTable) Dist(i, j int) float64 { return t.d[i*t.N+j] }

// UpdateRow recomputes only the moved electron's row and column — the
// O(Ne) incremental update of the production code.
func (t *DistanceTable) UpdateRow(elecs []Electron, moved int) error {
	if moved < 0 || moved >= t.N || len(elecs) != t.N {
		return fmt.Errorf("miniqmc: bad update (moved=%d, n=%d)", moved, len(elecs))
	}
	for j := 0; j < t.N; j++ {
		if j == moved {
			continue
		}
		r := periodicDist(elecs[moved], elecs[j])
		t.d[moved*t.N+j] = r
		t.d[j*t.N+moved] = r
	}
	return nil
}

// MinDist returns the smallest interparticle distance, used by the
// short-range Jastrow cusp checks.
func (t *DistanceTable) MinDist() float64 {
	min := math.Inf(1)
	for i := 0; i < t.N; i++ {
		for j := i + 1; j < t.N; j++ {
			if r := t.d[i*t.N+j]; r < min {
				min = r
			}
		}
	}
	return min
}

// JastrowFactor evaluates a simple two-body Jastrow log-correlation
// Σ_{i<j} −A/(1+B·r_ij) over the table — the correlation part of the
// trial wavefunction whose updates the distance table accelerates.
func (t *DistanceTable) JastrowFactor(a, b float64) float64 {
	sum := 0.0
	for i := 0; i < t.N; i++ {
		for j := i + 1; j < t.N; j++ {
			r := t.d[i*t.N+j]
			sum -= a / (1 + b*r)
		}
	}
	return sum
}
