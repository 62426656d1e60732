// Package miniqmc reproduces the miniQMC mini-app (§V-A3): real-space
// quantum Monte Carlo walker diffusion. The figure of merit on the
// simulated systems combines a GPU-rate term with the CPU congestion
// model that explains the paper's anomaly — the 6-GPU Aurora node
// scoring *below* the 4-GPU Dawn node because "resources on each CPU
// socket are shared by more GPUs attached to it". The electron distance
// table the walkers maintain is implemented for real and verified in
// tests.
package miniqmc

import (
	"fmt"

	"pvcsim/internal/hw"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/topology"
)

// softwareEff is the fraction of sustained FP32 rate the mixed-precision
// OpenMP-offload diffusion kernel achieves per software stack, calibrated
// from the one-stack Table VI FOMs: the Intel OpenMP offload path is the
// best tuned (≈0.14 of peak on both PVC systems — their ratio follows the
// hardware), CUDA reaches ≈0.06, and the ROCm path is "significantly
// penalized by software inefficiency (an order of magnitude slower)"
// (§V-B3) at ≈0.022.
var softwareEff = map[topology.System]float64{
	topology.Aurora:    0.1380,
	topology.Dawn:      0.1420,
	topology.JLSEH100:  0.0580,
	topology.JLSEMI250: 0.0221,
}

// congestion holds the CPU-congestion slowdown coefficients: with r ranks
// bound to one CPU socket, the per-rank diffusion time grows by
//
//	slowdown(r) = 1 + α·(r−1) + β·(r−1)²
//
// where the linear term models time-shared host computation and the
// quadratic term shared-DDR/PCIe bandwidth contention ("shared DDR and
// PCIe transfer buses further penalize the intra-node weak scaling
// performance on Aurora", §V-B1). Coefficients are fitted to the Table VI
// scaling of each system.
var congestion = map[topology.System]struct{ alpha, beta float64 }{
	topology.Aurora:    {0.144, 0.0283},
	topology.Dawn:      {0.0, 0.0953},
	topology.JLSEH100:  {0.263, 0.0},
	topology.JLSEMI250: {0.35, 0.266},
}

// ranksOnBusiestSocket computes how many of n ranks share the most loaded
// CPU socket under the paper's GPU-major rank binding.
func ranksOnBusiestSocket(node *topology.NodeSpec, n int) (int, error) {
	bindings, err := node.BindRanks(n)
	if err != nil {
		return 0, err
	}
	counts := make([]int, node.CPU.Sockets)
	for _, b := range bindings {
		counts[b.Socket]++
	}
	busiest := 0
	for _, c := range counts {
		if c > busiest {
			busiest = c
		}
	}
	return busiest, nil
}

// FOM returns the miniQMC figure of merit (N_walkers × N_elec³ / T_diff,
// in the paper's normalized units) on n subdevices, weak-scaled with 320
// walkers per GPU.
func FOM(sys topology.System, n int) (float64, error) {
	node := topology.NewNode(sys)
	if n < 1 || n > node.TotalStacks() {
		return 0, fmt.Errorf("miniqmc: %s supports 1..%d ranks, got %d", node.Name, node.TotalStacks(), n)
	}
	m := perfmodel.New(node)
	perStack := softwareEff[sys] * float64(m.Gov.SustainedPeak(hw.VectorEngine, hw.FP32)) / 1e12
	s, err := slowdown(sys, node, n)
	if err != nil {
		return 0, err
	}
	return float64(n) * perStack / s, nil
}

// slowdown is the congestion factor of n ranks on the node.
func slowdown(sys topology.System, node *topology.NodeSpec, n int) (float64, error) {
	r, err := ranksOnBusiestSocket(node, n)
	if err != nil {
		return 0, err
	}
	c := congestion[sys]
	x := float64(r - 1)
	return 1 + c.alpha*x + c.beta*x*x, nil
}
