// Package minibude reproduces the miniBUDE mini-app (§V-A1): virtual
// screening that repeatedly evaluates the interaction energy of protein-
// ligand poses. The energy kernel is implemented for real — a simplified
// BUDE force field with steric and electrostatic terms over all
// ligand-protein atom pairs, poses applied as rigid-body transforms — and
// is verified by physical invariants in the tests. The figure of merit
// (billion interactions per second) on each simulated system comes from
// the FP32-flop-rate model with the per-system achieved efficiency the
// paper reports (~45-49% of peak on PVC, ~30% on H100, ~26% on MI250).
//
//pvclint:ignore testonly DESIGN §1 real, tested numerical kernels: docking energies
package minibude

import (
	"fmt"
	"math"
	"math/rand"

	"pvcsim/internal/hw"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sched"
	"pvcsim/internal/topology"
)

// Atom is one atom with a position, a van-der-Waals-like radius and a
// partial charge.
type Atom struct {
	X, Y, Z float32
	Radius  float32
	Charge  float32
}

// Pose is a rigid-body transform: ZYX Euler rotation plus translation.
type Pose struct {
	RotX, RotY, RotZ float32
	TX, TY, TZ       float32
}

// Deck is one virtual-screening input: the paper's deck has 2672 ligand
// atoms, 2672 protein atoms and 983040 poses.
type Deck struct {
	Ligand  []Atom
	Protein []Atom
	Poses   []Pose
}

// PaperDeckSize reflects the §V-A1 input.
var PaperDeckSize = struct {
	Ligands, Proteins, Poses int
}{2672, 2672, 983040}

// NewSyntheticDeck generates a deterministic random deck of the given
// size, the stand-in for the NDM-1 input the paper fetches.
func NewSyntheticDeck(nLig, nProt, nPoses int, seed int64) *Deck {
	rng := rand.New(rand.NewSource(seed))
	atom := func(spread float32) Atom {
		return Atom{
			X:      (rng.Float32() - 0.5) * spread,
			Y:      (rng.Float32() - 0.5) * spread,
			Z:      (rng.Float32() - 0.5) * spread,
			Radius: 1.2 + rng.Float32()*0.8,
			Charge: (rng.Float32() - 0.5) * 0.8,
		}
	}
	d := &Deck{}
	for i := 0; i < nLig; i++ {
		d.Ligand = append(d.Ligand, atom(10))
	}
	for i := 0; i < nProt; i++ {
		d.Protein = append(d.Protein, atom(30))
	}
	for i := 0; i < nPoses; i++ {
		d.Poses = append(d.Poses, Pose{
			RotX: rng.Float32() * 2 * math.Pi,
			RotY: rng.Float32() * 2 * math.Pi,
			RotZ: rng.Float32() * 2 * math.Pi,
			TX:   (rng.Float32() - 0.5) * 20,
			TY:   (rng.Float32() - 0.5) * 20,
			TZ:   (rng.Float32() - 0.5) * 20,
		})
	}
	return d
}

// Transform applies the pose to an atom position.
func (p Pose) Transform(a Atom) (x, y, z float32) {
	sx, cx := sincos(p.RotX)
	sy, cy := sincos(p.RotY)
	sz, cz := sincos(p.RotZ)
	// Rotate about X, then Y, then Z.
	x0, y0, z0 := a.X, a.Y, a.Z
	y1 := cx*y0 - sx*z0
	z1 := sx*y0 + cx*z0
	x1 := x0
	x2 := cy*x1 + sy*z1
	z2 := -sy*x1 + cy*z1
	y2 := y1
	x3 := cz*x2 - sz*y2
	y3 := sz*x2 + cz*y2
	return x3 + p.TX, y3 + p.TY, z2 + p.TZ
}

func sincos(a float32) (float32, float32) {
	s, c := math.Sincos(float64(a))
	return float32(s), float32(c)
}

// Force-field constants of the simplified BUDE potential.
const (
	stericWeight  = 4.0
	chargeWeight  = 332.0 // Coulomb constant in kcal·Å/(mol·e²)
	cutoffSquared = 64.0  // 8 Å interaction cutoff
	softening     = 0.25
)

// PoseEnergy evaluates the interaction energy of one pose: for every
// ligand-protein atom pair inside the cutoff, a soft steric repulsion
// plus screened electrostatics. This is the FP32 inner loop whose
// throughput miniBUDE measures.
func PoseEnergy(d *Deck, pose Pose) float32 {
	var e float64
	for _, la := range d.Ligand {
		lx, ly, lz := pose.Transform(la)
		for _, pa := range d.Protein {
			dx := lx - pa.X
			dy := ly - pa.Y
			dz := lz - pa.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 > cutoffSquared {
				continue
			}
			rr := r2 + softening
			sum := la.Radius + pa.Radius
			steric := stericWeight * (sum * sum / rr) * (sum * sum / rr)
			coulomb := chargeWeight * la.Charge * pa.Charge / float32(math.Sqrt(float64(rr)))
			e += float64(steric + coulomb)
		}
	}
	return float32(e)
}

// Screen evaluates every pose and returns the energies; it is the real
// (host-scale) form of the benchmark workload.
func Screen(d *Deck) []float32 {
	out := make([]float32, len(d.Poses))
	for i, p := range d.Poses {
		out[i] = PoseEnergy(d, p)
	}
	return out
}

// FlopsPerInteraction is the FP32 cost of one atom-atom interaction in
// the GPU kernel (transform amortized over protein atoms; distance, two
// potential terms, accumulate). Used to convert flop rates into the
// paper's FOM unit.
const FlopsPerInteraction = 35.0

// achievedFraction is the measured fraction of FP32 peak miniBUDE reaches
// per system (§V-B2: "the results on Aurora and Dawn place them around
// 45% and 49% of their peak single precision flops... H100 reaches 30% of
// its peak"; §V-B3: MI250 "about 26%").
var achievedFraction = map[topology.System]float64{
	topology.Aurora:    0.448,
	topology.Dawn:      0.489,
	topology.JLSEH100:  0.334,
	topology.JLSEMI250: 0.30,
}

// SweepPoint is one (poses-per-work-item, work-group size) configuration
// of the paper's tuning sweep with its relative efficiency.
type SweepPoint struct {
	PPWI    int
	WGSize  int
	RelEff  float64
	GInterS float64
}

// FOM returns the figure of merit — billion interactions per second — of
// the mini-app on one subdevice of the system, after the ppwi/work-group
// sweep the paper performs ("run with a combination of poses per
// work-item (ppwi) and work-group sizes to find the fastest result").
// miniBUDE is not an MPI application, so the paper only reports one-stack
// numbers; callers double the value for a full PVC as the paper does.
//
// The sweep surface is mechanistic: each configuration's relative
// efficiency comes from the sched occupancy model (register pressure
// from high ppwi halves resident threads past the §II 128-register
// budget; the dispatch tail penalizes configurations with few
// work-groups) times an ILP term (low ppwi leaves per-pose loop overhead
// unamortized). The surface is normalized so the best configuration
// realizes the system's measured achieved fraction.
func FOM(sys topology.System) (float64, []SweepPoint) {
	node := topology.NewNode(sys)
	m := perfmodel.New(node)
	peak := float64(m.Gov.SustainedPeak(hw.VectorEngine, hw.FP32))
	base := achievedFraction[sys]
	res := sched.CoreResourcesFor(node.GPU)
	var sweep []SweepPoint
	bestRel := 0.0
	for _, ppwi := range []int{1, 2, 4, 8, 16} {
		for _, wg := range []int{64, 128, 256} {
			rel := sweepEff(res, node.GPU.Sub.CoreCount, ppwi, wg)
			sweep = append(sweep, SweepPoint{PPWI: ppwi, WGSize: wg, RelEff: rel})
			if rel > bestRel {
				bestRel = rel
			}
		}
	}
	best := 0.0
	for i := range sweep {
		norm := sweep[i].RelEff / bestRel
		sweep[i].GInterS = peak * base * norm / FlopsPerInteraction / 1e9
		if sweep[i].GInterS > best {
			best = sweep[i].GInterS
		}
	}
	return best, sweep
}

// sweepRegsPerItem models the kernel's register demand: the pose
// accumulators grow linearly with poses-per-work-item (regression of the
// real SYCL kernel's reported usage).
func sweepRegsPerItem(ppwi int) int { return 40 + 12*ppwi }

// sweepEff evaluates one configuration's relative efficiency through the
// occupancy model.
func sweepEff(res sched.CoreResources, cores, ppwi, wg int) float64 {
	groups := PaperDeckSize.Poses / (ppwi * wg)
	if groups < 1 {
		groups = 1
	}
	shape := sched.KernelShape{
		WorkGroups:       groups,
		WorkGroupSize:    wg,
		RegistersPerItem: sweepRegsPerItem(ppwi),
	}
	occ, err := sched.ComputeOccupancy(res, shape)
	if err != nil {
		return 0
	}
	tail, err := sched.TailEfficiency(res, shape, cores)
	if err != nil {
		return 0
	}
	// Compute-bound FMA chains need ~6 resident threads per core to
	// cover the FMA pipeline latency; the ≥128-register cliff that drops
	// occupancy to 4 threads therefore costs real throughput.
	pipeline := math.Min(1, float64(occ.ThreadsPerCore)/6.0)
	// Per-pose loop overhead amortizes with ppwi.
	ilp := 1 - 0.18/float64(ppwi)
	return pipeline * tail * ilp
}

// String renders a sweep point.
func (s SweepPoint) String() string {
	return fmt.Sprintf("ppwi=%d wg=%d: %.1f GInteractions/s", s.PPWI, s.WGSize, s.GInterS)
}
