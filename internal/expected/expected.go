// Package expected implements the paper's prediction methodology: the
// "black bars" of Figures 2–4. Each mini-app has a known bound resource
// (Table V); the expected relative performance between two systems is the
// ratio of that resource, using measured microbenchmark values on the PVC
// systems and theoretical peaks on the H100/MI250 references ("Since we
// use the theoretical value for H100 instead of the measured values, the
// black bars are a lower bound").
package expected

import (
	"pvcsim/internal/hw"
	"pvcsim/internal/paper"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/topology"
)

// Granularity selects the comparison unit of Figures 2–4.
type Granularity int

const (
	// PerStack compares one PVC stack to one MI250 GCD (or a whole H100).
	PerStack Granularity = iota
	// PerGPU compares whole cards.
	PerGPU
	// PerNode compares full nodes.
	PerNode
)

// String names the granularity as the figures label it.
func (g Granularity) String() string {
	switch g {
	case PerStack:
		return "One Stack"
	case PerGPU:
		return "One GPU"
	default:
		return "Full Node"
	}
}

// Resource identifies the bound resource of a workload.
type Resource int

const (
	// ResourceNone means the paper draws no expectation bar (miniQMC in
	// Figure 2: CPU congestion is not captured by any microbenchmark).
	ResourceNone Resource = iota
	// ResourceFP32 is single-precision flop rate (miniBUDE, HACC GPU side).
	ResourceFP32
	// ResourceMemBW is device memory bandwidth (CloverLeaf, OpenMC).
	ResourceMemBW
	// ResourceDGEMM is double-precision GEMM rate (mini-GAMESS).
	ResourceDGEMM
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case ResourceFP32:
		return "FP32 peak"
	case ResourceMemBW:
		return "memory bandwidth"
	case ResourceDGEMM:
		return "DGEMM rate"
	default:
		return "none"
	}
}

// BoundResource maps a workload to its Table V bound.
func BoundResource(w paper.Workload) Resource {
	switch w {
	case paper.MiniBUDE, paper.HACC:
		return ResourceFP32
	case paper.CloverLeaf, paper.OpenMC:
		return ResourceMemBW
	case paper.MiniGAMESS:
		return ResourceDGEMM
	default: // miniQMC: CPU-congestion bound, no microbenchmark captures it
		return ResourceNone
	}
}

// Predictor computes bound-resource values per system and granularity.
type Predictor struct {
	models map[topology.System]*perfmodel.Model
}

// NewPredictor builds a predictor over the four standard systems.
func NewPredictor() *Predictor {
	p := &Predictor{models: map[topology.System]*perfmodel.Model{}}
	for _, s := range topology.AllSystems() {
		p.models[s] = perfmodel.New(topology.NewNode(s))
	}
	return p
}

// subdevices maps granularity to subdevice count on a system.
func (p *Predictor) subdevices(sys topology.System, g Granularity) int {
	node := p.models[sys].Node
	switch g {
	case PerStack:
		return 1
	case PerGPU:
		return node.GPU.SubCount
	default:
		return node.TotalStacks()
	}
}

// theoretical reference values per subdevice (Table IV), used for the
// H100/MI250 side of each ratio exactly as the paper does.
func theoreticalPerSub(sys topology.System, r Resource) (float64, bool) {
	switch sys {
	case topology.JLSEH100:
		ref := paper.TableIV["H100"]
		switch r {
		case ResourceFP32:
			return ref.FP32PeakTF * 1e12, true
		case ResourceMemBW:
			return ref.MemBWTBs * 1e12, true
		case ResourceDGEMM:
			return ref.FP64PeakTF * 1e12, true
		}
	case topology.JLSEMI250:
		ref := paper.TableIV["MI250"]
		switch r {
		case ResourceFP32:
			return ref.FP32PeakTF / 2 * 1e12, true // per GCD
		case ResourceMemBW:
			return ref.MemBWTBs / 2 * 1e12, true
		case ResourceDGEMM:
			return ref.FP64PeakTF / 2 * 1e12, true
		}
	}
	return 0, false
}

// Value returns the bound-resource capability of a system at a
// granularity in consistent units (op/s or B/s), using measured-model
// values on PVC systems and theoretical peaks on the references.
func (p *Predictor) Value(w paper.Workload, sys topology.System, g Granularity) (float64, bool) {
	r := BoundResource(w)
	if r == ResourceNone {
		return 0, false
	}
	n := p.subdevices(sys, g)
	if v, ok := theoreticalPerSub(sys, r); ok {
		return v * float64(n), true
	}
	m := p.models[sys]
	switch r {
	case ResourceFP32:
		return float64(m.AggregateVectorRate(perfmodel.KindPeakFlops, hw.FP32, n)), true
	case ResourceMemBW:
		return float64(m.MemBandwidth(n)), true
	case ResourceDGEMM:
		return float64(m.AggregateRate(perfmodel.KindGEMM, hw.FP64, n)), true
	}
	return 0, false
}

// Ratio returns the expected relative FOM of sysA at granA versus sysB at
// granB — the black bar height. ok is false when the workload has no
// microbenchmark-expressible bound.
func (p *Predictor) Ratio(w paper.Workload, sysA topology.System, granA Granularity,
	sysB topology.System, granB Granularity) (float64, bool) {
	a, okA := p.Value(w, sysA, granA)
	b, okB := p.Value(w, sysB, granB)
	if !okA || !okB || b == 0 {
		return 0, false
	}
	return a / b, true
}
