// Package rimp2 reproduces the GAMESS RI-MP2 mini-app (§V-A4): the
// resolution-of-the-identity MP2 perturbative energy correction, whose
// main portion "is a call to DGEMM and a reduction". The figure of merit
// (1/walltime in hours) on the simulated systems follows the DGEMM-rate
// model with the paper's strong-scaling behaviour; the MI250 row is
// unavailable exactly as in the paper ("it failed to build with the AMD
// Fortran compiler").
package rimp2

import (
	"errors"
	"fmt"
	"math"

	"pvcsim/internal/hw"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/topology"
)

// ErrUnsupported mirrors the paper's missing MI250 column: "The
// mini-GAMESS MI250 FOM results are absent since it failed to build with
// the AMD Fortran compiler."
var ErrUnsupported = errors.New("rimp2: mini-GAMESS does not build on JLSE-MI250 (AMD Fortran compiler failure)")

// paperWorkTflop is the W90 input's effective DGEMM work, calibrated so
// an Aurora stack sustaining 13 TFlop/s of DGEMM yields the published
// FOM of 19.44 1/h: W = 13 × 3600 / 19.44 ≈ 2407 Tflop.
const paperWorkTflop = 13.0 * 3600 / 19.44

// strongScale holds the measured strong-scaling efficiency anchors at
// (2 subdevices, full node) from Table VI.
var strongScale = map[topology.System]struct{ two, full float64 }{
	topology.Aurora:   {0.990, 0.845}, // 38.50/38.88, 197.08/233.3
	topology.Dawn:     {0.893, 0.838}, // 43.88/49.14, 164.71/196.6
	topology.JLSEH100: {0.920, 0.857}, // 168.97/197.2 at 4 GPUs
}

// achievedDGEMM returns the in-app sustained DGEMM rate per subdevice.
func achievedDGEMM(sys topology.System) (float64, error) {
	node := topology.NewNode(sys)
	m := perfmodel.New(node)
	switch sys {
	case topology.Aurora, topology.Dawn:
		return float64(m.SustainedRate(perfmodel.KindGEMM, hw.FP64)), nil
	case topology.JLSEH100:
		// The OpenMP-offloaded Fortran kernel drives cuBLAS DGEMM on the
		// FP64 vector/FMA pipeline at ~97% (33 of 34 TFlop/s).
		return float64(m.Gov.SustainedPeak(hw.VectorEngine, hw.FP64)) * 0.97, nil
	default:
		return 0, ErrUnsupported
	}
}

// FOM returns the mini-GAMESS figure of merit, 1/walltime(h), on n
// subdevices (strong scaling of the single W90 input).
func FOM(sys topology.System, n int) (float64, error) {
	node := topology.NewNode(sys)
	if n < 1 || n > node.TotalStacks() {
		return 0, fmt.Errorf("rimp2: %s supports 1..%d ranks, got %d", node.Name, node.TotalStacks(), n)
	}
	rate, err := achievedDGEMM(sys)
	if err != nil {
		return 0, err
	}
	eff := 1.0
	if n > 1 {
		a := strongScale[sys]
		full := node.TotalStacks()
		switch {
		case n <= 2:
			eff = a.two
		case n >= full:
			eff = a.full
		default:
			t := (math.Log(float64(n)) - math.Log(2)) / (math.Log(float64(full)) - math.Log(2))
			eff = a.two + t*(a.full-a.two)
		}
	}
	return rate / 1e12 * float64(n) * eff * 3600 / paperWorkTflop, nil
}
