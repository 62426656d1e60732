package openmc

import (
	"fmt"
	"math"
	"math/rand"
)

// Eigenvalue solves for k-effective with the standard Monte Carlo power
// iteration: batches of particle histories propagate a fission bank, the
// batchwise ratio of produced to started neutrons estimates k, and
// inactive batches converge the source before active batches accumulate
// statistics — OpenMC's actual "active phase" whose rate Table VI's FOM
// measures.
type EigenvalueResult struct {
	K        float64   // mean over active batches
	KStd     float64   // standard deviation of the batch means
	BatchK   []float64 // per active batch
	Inactive int
	Active   int
}

// EigenvalueOptions configures the power iteration.
type EigenvalueOptions struct {
	Material  *Material
	Thickness float64 // slab thickness, cm
	Particles int     // per batch
	Inactive  int
	Active    int
	Seed      int64
}

// site is a fission bank entry.
type site struct {
	x float64
	g int
}

// SolveEigenvalue runs the power iteration and returns the k-effective
// estimate for the slab.
func SolveEigenvalue(opt EigenvalueOptions) (*EigenvalueResult, error) {
	m := opt.Material
	if m == nil {
		return nil, fmt.Errorf("openmc: eigenvalue needs a material")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opt.Thickness <= 0 || opt.Particles < 1 || opt.Active < 1 {
		return nil, fmt.Errorf("openmc: bad eigenvalue options %+v", opt)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Initial uniform source in group 0.
	bank := make([]site, opt.Particles)
	for i := range bank {
		bank[i] = site{x: rng.Float64() * opt.Thickness, g: 0}
	}

	res := &EigenvalueResult{Inactive: opt.Inactive, Active: opt.Active}
	total := opt.Inactive + opt.Active
	for batch := 0; batch < total; batch++ {
		var nextBank []site
		var produced float64
		for _, s := range bank {
			produced += transportHistory(m, opt.Thickness, s, rng, &nextBank)
		}
		k := produced / float64(len(bank))
		if batch >= opt.Inactive {
			res.BatchK = append(res.BatchK, k)
		}
		// Renormalize the bank to the batch size (comb sampling).
		bank = resampleBank(nextBank, opt.Particles, rng, opt.Thickness)
	}
	mean := 0.0
	for _, k := range res.BatchK {
		mean += k
	}
	mean /= float64(len(res.BatchK))
	res.K = mean
	varSum := 0.0
	for _, k := range res.BatchK {
		varSum += (k - mean) * (k - mean)
	}
	if len(res.BatchK) > 1 {
		res.KStd = math.Sqrt(varSum / float64(len(res.BatchK)-1))
	}
	return res, nil
}

// transportHistory runs one history from a bank site and returns the
// expected fission production; new fission sites are appended to next.
func transportHistory(m *Material, thickness float64, s site, rng *rand.Rand, next *[]site) float64 {
	x := s.x
	g := s.g
	mu := 2*rng.Float64() - 1
	var produced float64
	for {
		sigT := m.Total[g]
		dist := -math.Log(rng.Float64()) / sigT
		x += mu * dist
		if x < 0 || x > thickness {
			return produced // leaked
		}
		// Implicit fission production estimate; bank sites sampled with
		// the same expectation.
		nu := m.NuFiss[g] / sigT
		produced += nu
		n := int(nu + rng.Float64()) // stochastic rounding
		for i := 0; i < n; i++ {
			*next = append(*next, site{x: x, g: 0}) // fission neutrons born fast
		}
		if rng.Float64() < m.Absorb[g]/sigT {
			return produced // absorbed
		}
		// Scatter.
		row := m.Scatter[g]
		pick := rng.Float64() * (sigT - m.Absorb[g])
		for gp := 0; gp < m.Groups; gp++ {
			pick -= row[gp]
			if pick <= 0 {
				g = gp
				break
			}
		}
		mu = 2*rng.Float64() - 1
	}
}

// resampleBank returns exactly n sites drawn from the bank (comb
// resampling); an empty bank reseeds uniformly, which only happens for
// deeply subcritical systems.
func resampleBank(bank []site, n int, rng *rand.Rand, thickness float64) []site {
	out := make([]site, n)
	if len(bank) == 0 {
		for i := range out {
			out[i] = site{x: rng.Float64() * thickness, g: 0}
		}
		return out
	}
	for i := range out {
		out[i] = bank[rng.Intn(len(bank))]
	}
	return out
}
