// Package cloverleaf reproduces the CloverLeaf mini-app (§V-A2): an
// explicit compressible-Euler hydrodynamics benchmark that is memory-
// bandwidth bound and weak-scaled with MPI. The figure of merit (cells
// per second) on the simulated systems comes from the bandwidth model
// with the per-cell traffic the paper's measured FOMs fix; the weak- and
// strong-scaling drivers run each rank's hydro kernels, halo exchanges
// and dt allreduce through the simulated node or cluster.
package cloverleaf

import (
	"fmt"

	"pvcsim/internal/topology"
)

// PaperGridEdge is the per-rank grid edge of the paper's runs: "A grid of
// size 15360 (≈ 47GB) is solved on each rank, and the results are weakly
// scaled up to a full node."
const PaperGridEdge = 15360

// BytesPerCellStep is the HBM traffic one cell generates per timestep.
// CloverLeaf's production kernels sweep ~15 field arrays across dozens of
// kernels per step; the paper's measured FOMs fix the effective traffic:
// on a PVC stack sustaining 1 TB/s the mini-app advances 20.8–22.5 Mcells
// per second, i.e. ≈ 48 kB of traffic per cell-step. The same constant
// reproduces H100 (3.17 TB/s → 66 Mcells/s) and an MI250 GCD (1.3 TB/s →
// 27 Mcells/s), confirming the mini-app is purely bandwidth-bound.
const BytesPerCellStep = 48030.0

// weakScalingEff is the measured full-node weak-scaling efficiency
// (Table VI: e.g. Aurora 240.89 / (12 × 20.82) = 0.96), dominated by the
// per-step collective timestep reduction and boundary exchange.
var weakScalingEff = map[topology.System]float64{
	topology.Aurora:    0.964,
	topology.Dawn:      0.930,
	topology.JLSEH100:  0.992,
	topology.JLSEMI250: 0.937,
}

// FOM returns the CloverLeaf figure of merit — Mcells/s — on n subdevices
// of the system (weak scaling: each rank owns a PaperGridEdge² grid).
func FOM(sys topology.System, n int) (float64, error) {
	node := topology.NewNode(sys)
	if n < 1 || n > node.TotalStacks() {
		return 0, fmt.Errorf("cloverleaf: %s supports 1..%d ranks, got %d", node.Name, node.TotalStacks(), n)
	}
	bw := float64(node.GPU.Sub.MemBWSustained)
	perSub := bw / BytesPerCellStep / 1e6 // Mcells/s per subdevice
	eff := 1.0
	if n > 1 {
		eff = weakScalingEff[sys]
	}
	return perSub * float64(n) * eff, nil
}
