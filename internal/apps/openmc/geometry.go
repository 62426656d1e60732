//pvclint:ignore testonly DESIGN §3 X14 heterogeneous transport: openmc.Geometry, RunHetero
package openmc

import (
	"fmt"
	"math"
	"math/rand"
)

// Heterogeneous slab geometry: a 1-D stack of material regions (fuel,
// moderator, reflector...), the structure of a real reactor lattice cell.
// Transport handles region crossings exactly (distance-to-boundary vs
// distance-to-collision), and per-region track-length tallies expose the
// physics (flux depression in absorbers, reflector gain).

// Region is one material slab segment.
type Region struct {
	Name     string
	Material *Material
	Width    float64 // cm
}

// Geometry is an ordered stack of regions with vacuum on both sides.
type Geometry struct {
	Regions []Region
	edges   []float64 // cumulative boundaries, len = len(Regions)+1
}

// NewGeometry validates and builds a geometry.
func NewGeometry(regions []Region) (*Geometry, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("openmc: geometry needs at least one region")
	}
	g := &Geometry{Regions: regions, edges: make([]float64, len(regions)+1)}
	groups := regions[0].Material.Groups
	for i, r := range regions {
		if r.Width <= 0 {
			return nil, fmt.Errorf("openmc: region %q has non-positive width", r.Name)
		}
		if err := r.Material.Validate(); err != nil {
			return nil, fmt.Errorf("openmc: region %q: %w", r.Name, err)
		}
		if r.Material.Groups != groups {
			return nil, fmt.Errorf("openmc: region %q has %d groups, want %d", r.Name, r.Material.Groups, groups)
		}
		g.edges[i+1] = g.edges[i] + r.Width
	}
	return g, nil
}

// Thickness returns the total slab width.
func (g *Geometry) Thickness() float64 { return g.edges[len(g.edges)-1] }

// regionAt returns the region index containing x (clamped at boundaries).
func (g *Geometry) regionAt(x float64) int {
	for i := 1; i < len(g.edges); i++ {
		if x < g.edges[i] {
			return i - 1
		}
	}
	return len(g.Regions) - 1
}

// HeteroResult summarizes a heterogeneous fixed-source run.
type HeteroResult struct {
	Histories    int
	Absorbed     int
	Leaked       int
	KEstimate    float64
	RegionFlux   []float64 // track length per region, per source particle
	RegionAbsorb []int
}

// RunHetero transports histories through the geometry with a uniform
// source in the first region, group 0.
func RunHetero(g *Geometry, histories int, seed int64) (*HeteroResult, error) {
	if histories < 1 {
		return nil, fmt.Errorf("openmc: need at least one history")
	}
	rng := rand.New(rand.NewSource(seed))
	res := &HeteroResult{
		Histories:    histories,
		RegionFlux:   make([]float64, len(g.Regions)),
		RegionAbsorb: make([]int, len(g.Regions)),
	}
	thickness := g.Thickness()
	var production float64
	for h := 0; h < histories; h++ {
		// Source uniform in region 0.
		x := g.edges[0] + rng.Float64()*g.Regions[0].Width
		mu := 2*rng.Float64() - 1
		gIdx := 0
		for alive := true; alive; {
			ri := g.regionAt(x)
			mat := g.Regions[ri].Material
			sigT := mat.Total[gIdx]
			dColl := -math.Log(rng.Float64()) / sigT
			// Distance to the region boundary along mu.
			var dBound float64
			switch {
			case mu > 0:
				dBound = (g.edges[ri+1] - x) / mu
			case mu < 0:
				dBound = (g.edges[ri] - x) / mu
			default:
				dBound = math.Inf(1)
			}
			if dBound < dColl {
				// Cross into the next region (or leak).
				res.RegionFlux[ri] += dBound
				x += mu * dBound * 1.0000001 // nudge across the boundary
				if x <= 0 || x >= thickness {
					res.Leaked++
					break
				}
				continue
			}
			res.RegionFlux[ri] += dColl
			x += mu * dColl
			production += mat.NuFiss[gIdx] / sigT
			if rng.Float64() < mat.Absorb[gIdx]/sigT {
				res.Absorbed++
				res.RegionAbsorb[ri]++
				alive = false
				continue
			}
			row := mat.Scatter[gIdx]
			pick := rng.Float64() * (sigT - mat.Absorb[gIdx])
			for gp := 0; gp < mat.Groups; gp++ {
				pick -= row[gp]
				if pick <= 0 {
					gIdx = gp
					break
				}
			}
			mu = 2*rng.Float64() - 1
		}
	}
	for i := range res.RegionFlux {
		res.RegionFlux[i] /= float64(histories)
	}
	res.KEstimate = production / float64(histories)
	return res, nil
}

// Moderator builds a nearly pure scatterer (water-like) in two groups
// with strong down-scattering.
func Moderator() *Material {
	return &Material{
		Groups:  2,
		Total:   []float64{0.60, 2.00},
		Scatter: [][]float64{{0.50, 0.099}, {0.00, 1.98}},
		Absorb:  []float64{0.001, 0.02},
		NuFiss:  []float64{0, 0},
	}
}

// StrongAbsorber builds a control-rod-like material.
func StrongAbsorber() *Material {
	return &Material{
		Groups:  2,
		Total:   []float64{1.0, 5.0},
		Scatter: [][]float64{{0.20, 0.05}, {0.00, 0.50}},
		Absorb:  []float64{0.75, 4.50},
		NuFiss:  []float64{0, 0},
	}
}
