// Package hacc reproduces the CRK-HACC application study (§VI-A2): an
// N-body cosmology code with conservative-reproducing-kernel SPH gas
// dynamics. The figure of merit (particle-steps per second, in the
// paper's normalized units) combines the GPU FP32 term with the
// host-side CPU memory-bandwidth term, "CPU memory BW bound, GPU FP32
// flop-rate bound" (Table V).
package hacc

import (
	"fmt"

	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
)

// The paper's run configurations: "2×480³ particles for a 12 rank
// configuration and 2×400³ particles for 8 ranks".
const (
	Particles12Rank = 2 * 480 * 480 * 480
	Particles8Rank  = 2 * 400 * 400 * 400
)

// FOM model: a step's wall time splits into a GPU term (short-range
// forces, FP32 flop-rate bound) and a host term (tree/long-range and data
// marshaling, CPU memory-bandwidth bound):
//
//	t_step = gpuWork / F_node + cpuWork / C_node
//
// with F the node FP32 capability (measured on PVC, theoretical on the
// references, derated for the 2-ranks-per-GPU CUDA configuration) and C
// the node's aggregate CPU DRAM bandwidth. The two work constants are
// global — only the node capabilities differ between systems.
const (
	gpuWorkTF  = 8.02 // Tflop-equivalents of GPU work per normalized step
	cpuWorkGBs = 20.0 // GB-equivalents of host traffic per normalized step
)

// gpuEff derates the GPU term for software configuration: the H100 runs
// the CUDA path with two MPI ranks per GPU (§VI-A2), which the paper's
// scaled-performance analysis shows costs ~20%.
var gpuEff = map[topology.System]float64{
	topology.Aurora:    1.0,
	topology.Dawn:      1.0,
	topology.JLSEH100:  0.8,
	topology.JLSEMI250: 1.0,
}

// nodeFP32TF returns the node FP32 capability in TFlop/s: the measured
// full-node peak for the PVC systems (Table II) and the datasheet peak ×
// GPU count for the references (Table IV).
func nodeFP32TF(sys topology.System) float64 {
	switch sys {
	case topology.Aurora:
		return paper.TableII[topology.Aurora][paper.FP32Peak][2] // 268
	case topology.Dawn:
		return paper.TableII[topology.Dawn][paper.FP32Peak][2] // 207
	case topology.JLSEH100:
		return paper.TableIV["H100"].FP32PeakTF * 4 // 268
	default:
		return paper.TableIV["MI250"].FP32PeakTF * 4 // 181.2
	}
}

// nodeCPUBWGBs returns the node's aggregate CPU memory bandwidth in GB/s
// from the topology CPU specs.
func nodeCPUBWGBs(sys topology.System) float64 {
	node := topology.NewNode(sys)
	return float64(node.CPU.MemBWPerSocket) / 1e9 * float64(node.CPU.Sockets)
}

// FOM returns the CRK-HACC figure of merit (Np·Nsteps/t in the paper's
// normalized units) for a full-node run.
func FOM(sys topology.System) (float64, error) {
	f := nodeFP32TF(sys) * gpuEff[sys]
	c := nodeCPUBWGBs(sys)
	if f <= 0 || c <= 0 {
		return 0, fmt.Errorf("hacc: no capability data for %v", sys)
	}
	t := gpuWorkTF/f + cpuWorkGBs/c
	return 1 / t, nil
}

// Breakdown reports the GPU and CPU fractions of the step time, the
// analysis behind "the FOM results in Table VI reflect the differences in
// GPU compute capabilities along with the available CPU threads and
// bandwidth".
func Breakdown(sys topology.System) (gpuFrac, cpuFrac float64) {
	f := nodeFP32TF(sys) * gpuEff[sys]
	c := nodeCPUBWGBs(sys)
	tg := gpuWorkTF / f
	tc := cpuWorkGBs / c
	return tg / (tg + tc), tc / (tg + tc)
}
