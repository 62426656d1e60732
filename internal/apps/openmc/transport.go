// Package openmc reproduces the OpenMC application study (§VI-A1): Monte
// Carlo neutral-particle transport on a depleted-fuel small modular
// reactor benchmark. A real multigroup transport kernel is implemented —
// exponential flight sampling, scattering/absorption/fission collision
// physics, track-length flux tallies, slab leakage — and verified against
// analytic infinite-medium theory in the tests. The figure of merit
// (thousand particles per second in the active phase) on the simulated
// systems follows a memory-latency model in which PVC's 192 MiB per-stack
// L2 holds a large fraction of the cross-section data, the mechanism
// behind OpenMC's "excellent performance ... on the Aurora PVC
// architecture" (§VI-B1).
//
//pvclint:ignore testonly DESIGN §1 real, tested numerical kernels: Monte Carlo transport (RunSlab)
package openmc

import (
	"fmt"
	"math"
	"math/rand"
)

// Material holds multigroup macroscopic cross sections (per cm): total,
// scattering matrix, absorption and fission production.
type Material struct {
	Groups  int
	Total   []float64   // Σt per group
	Scatter [][]float64 // Σs[g][g'] group-to-group
	Absorb  []float64   // Σa per group
	NuFiss  []float64   // νΣf per group
}

// Validate checks Σt = Σa + Σs consistency per group.
func (m *Material) Validate() error {
	if m.Groups < 1 {
		return fmt.Errorf("openmc: material needs at least one group")
	}
	if len(m.Total) != m.Groups || len(m.Absorb) != m.Groups ||
		len(m.NuFiss) != m.Groups || len(m.Scatter) != m.Groups {
		return fmt.Errorf("openmc: cross-section arrays must have %d groups", m.Groups)
	}
	for g := 0; g < m.Groups; g++ {
		if len(m.Scatter[g]) != m.Groups {
			return fmt.Errorf("openmc: scatter row %d has wrong length", g)
		}
		sSum := 0.0
		for _, s := range m.Scatter[g] {
			if s < 0 {
				return fmt.Errorf("openmc: negative scatter in group %d", g)
			}
			sSum += s
		}
		if m.Absorb[g] < 0 || m.NuFiss[g] < 0 {
			return fmt.Errorf("openmc: negative cross section in group %d", g)
		}
		if math.Abs(sSum+m.Absorb[g]-m.Total[g]) > 1e-12 {
			return fmt.Errorf("openmc: group %d: Σs+Σa = %v != Σt = %v", g, sSum+m.Absorb[g], m.Total[g])
		}
	}
	return nil
}

// TwoGroupFuel builds a simple two-group depleted-fuel-like material.
func TwoGroupFuel() *Material {
	return &Material{
		Groups:  2,
		Total:   []float64{0.30, 0.80},
		Scatter: [][]float64{{0.24, 0.03}, {0.00, 0.60}},
		Absorb:  []float64{0.03, 0.20},
		NuFiss:  []float64{0.015, 0.35},
	}
}

// KInfinity returns the analytic infinite-medium multiplication factor of
// a material for a source born in group 0: k∞ = Σ_g ν Σf_g φ_g / Σ_g Σa_g φ_g,
// with the group flux from the infinite-medium balance solved directly
// for two groups.
func KInfinity(m *Material) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if m.Groups != 2 {
		return 0, fmt.Errorf("openmc: analytic k-infinity implemented for 2 groups")
	}
	// Balance (no leakage, source χ = (1,0)):
	//   (Σt0 − Σs00) φ0 = S
	//   (Σt1 − Σs11) φ1 = Σs01 φ0
	phi0 := 1.0 / (m.Total[0] - m.Scatter[0][0])
	phi1 := m.Scatter[0][1] * phi0 / (m.Total[1] - m.Scatter[1][1])
	prod := m.NuFiss[0]*phi0 + m.NuFiss[1]*phi1
	abs := m.Absorb[0]*phi0 + m.Absorb[1]*phi1
	return prod / abs, nil
}

// SlabResult summarizes a fixed-source slab transport run.
type SlabResult struct {
	Histories  int
	Absorbed   int
	Leaked     int
	Fissions   float64   // expected fission neutrons produced (implicit estimate)
	FluxTally  []float64 // track-length flux per spatial bin
	KEstimate  float64   // νΣf production / absorption+leakage collision estimate
	Collisions int64
}

// RunSlab transports histories particles through a 1-D homogeneous slab
// of the given thickness (cm) with vacuum boundaries, starting uniformly
// in space in group 0 with isotropic direction. Implicit-capture-free
// analog Monte Carlo with track-length tallies over bins spatial bins.
func RunSlab(m *Material, thickness float64, histories, bins int, seed int64) (*SlabResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if thickness <= 0 || histories < 1 || bins < 1 {
		return nil, fmt.Errorf("openmc: bad slab parameters")
	}
	rng := rand.New(rand.NewSource(seed))
	res := &SlabResult{Histories: histories, FluxTally: make([]float64, bins)}
	binW := thickness / float64(bins)
	var production float64
	for h := 0; h < histories; h++ {
		x := rng.Float64() * thickness
		mu := 2*rng.Float64() - 1 // isotropic in slab geometry
		g := 0
		for alive := true; alive; {
			sigT := m.Total[g]
			dist := -math.Log(rng.Float64()) / sigT
			// Track-length tally along the flight, clipped to the slab.
			x2 := x + mu*dist
			tallyTrack(res.FluxTally, x, x2, binW, thickness)
			if x2 < 0 || x2 > thickness {
				res.Leaked++
				break
			}
			x = x2
			res.Collisions++
			// Collision physics: production is estimated implicitly at
			// every collision (νΣf/Σt), then the neutron scatters or is
			// absorbed analog-style.
			production += m.NuFiss[g] / sigT
			if rng.Float64() < m.Absorb[g]/sigT {
				res.Absorbed++
				alive = false
				continue
			}
			// Scatter: select outgoing group from the scatter row.
			row := m.Scatter[g]
			sSum := sigT - m.Absorb[g]
			pick := rng.Float64() * sSum
			for gp := 0; gp < m.Groups; gp++ {
				pick -= row[gp]
				if pick <= 0 {
					g = gp
					break
				}
			}
			mu = 2*rng.Float64() - 1 // isotropic scattering
		}
	}
	res.Fissions = production
	if res.Absorbed+res.Leaked > 0 {
		res.KEstimate = production / float64(res.Histories)
	}
	return res, nil
}

// tallyTrack adds the track length between x1 and x2 (clipped to
// [0, thickness]) into the flux bins.
func tallyTrack(tally []float64, x1, x2, binW, thickness float64) {
	lo, hi := x1, x2
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 0 {
		lo = 0
	}
	if hi > thickness {
		hi = thickness
	}
	if hi <= lo {
		return
	}
	bins := len(tally)
	bLo := int(lo / binW)
	bHi := int(hi / binW)
	if bLo >= bins {
		bLo = bins - 1
	}
	if bHi >= bins {
		bHi = bins - 1
	}
	if bLo == bHi {
		tally[bLo] += hi - lo
		return
	}
	tally[bLo] += float64(bLo+1)*binW - lo
	for b := bLo + 1; b < bHi; b++ {
		tally[b] += binW
	}
	tally[bHi] += hi - float64(bHi)*binW
}
