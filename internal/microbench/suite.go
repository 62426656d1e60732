// Package microbench implements the paper's seven microbenchmarks (§IV,
// Table I) against the simulated systems: peak compute (FMA chain), device
// memory bandwidth (triad), host-device PCIe transfers, device-to-device
// transfers over MPI, GEMM in six precisions, FFT, and the lats memory
// latency pointer chase.
//
// Transfer benchmarks run on the discrete-event simulator, so contention
// (shared per-card PCIe links, host pools, duplex limits, Xe-Link planes)
// emerges from the fabric model. Compute benchmarks evaluate the
// calibrated performance model directly. Both report in the paper's
// units. RunHostSelfChecks additionally executes the real host kernels to
// demonstrate the benchmark codes compute correct results.
package microbench

import (
	"fmt"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/paper"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Suite runs microbenchmarks for one system.
type Suite struct {
	Node  *topology.NodeSpec
	Model *perfmodel.Model
	// Repeats is the best-of-N repetition count of the evaluation
	// framework (§IV-A). The simulator is deterministic, so repeats
	// exist to exercise the same policy the paper used.
	Repeats int
	// Target builds every machine a benchmark runs on; its recorder
	// also receives the suite's analytic model evaluations.
	Target *gpusim.Target
}

// NewSuite builds an unobserved suite for the node.
func NewSuite(node *topology.NodeSpec) *Suite {
	return NewSuiteOn(&gpusim.Target{Node: node})
}

// NewSuiteOn builds a suite for the target's node that builds its
// machines through the target, so suite-driven benchmarks in a runner
// cell land in that cell's trace and wall-clock profile.
func NewSuiteOn(t *gpusim.Target) *Suite {
	return &Suite{Node: t.Node, Model: t.Model(), Repeats: 3, Target: t}
}

// StacksFor maps a Table II column to a subdevice count on this node.
func (s *Suite) StacksFor(scope paper.Scope) int {
	switch scope {
	case paper.OneStack:
		return 1
	case paper.OnePVC:
		return s.Node.GPU.SubCount
	default:
		return s.Node.TotalStacks()
	}
}

// Result is one microbenchmark measurement in the paper's units.
type Result struct {
	Metric paper.Metric
	Scope  paper.Scope
	Value  float64
	Unit   string
}

// String renders "DGEMM (One Stack) = 13.1 TFlop/s".
func (r Result) String() string {
	return fmt.Sprintf("%s (%s) = %.4g %s", r.Metric, r.Scope, r.Value, r.Unit)
}

// TableII regenerates every Table II cell for this system, in the paper's
// row order and units.
func (s *Suite) TableII() (map[paper.Metric][3]float64, error) {
	out := map[paper.Metric][3]float64{}
	scopes := []paper.Scope{paper.OneStack, paper.OnePVC, paper.FullNode}
	for _, m := range paper.TableIIMetrics() {
		var row [3]float64
		for i, sc := range scopes {
			v, err := s.Run(m, sc)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out[m] = row
	}
	return out, nil
}

// Run executes one metric at one scope and returns the value in the
// paper's units for that row.
func (s *Suite) Run(metric paper.Metric, scope paper.Scope) (float64, error) {
	n := s.StacksFor(scope)
	switch metric {
	case paper.FP64Peak:
		return s.PeakFlops(FP64Chain, n), nil
	case paper.FP32Peak:
		return s.PeakFlops(FP32Chain, n), nil
	case paper.TriadBW:
		v, err := s.Triad(n)
		return v, err
	case paper.PCIeH2D:
		return s.PCIe(DirH2D, n)
	case paper.PCIeD2H:
		return s.PCIe(DirD2H, n)
	case paper.PCIeBidir:
		return s.PCIe(DirBidir, n)
	case paper.DGEMM, paper.SGEMM, paper.HGEMM, paper.BF16GEMM, paper.TF32GEMM, paper.I8GEMM:
		return s.GEMM(gemmPrecision(metric), n), nil
	case paper.FFT1D:
		return s.FFT(1, n), nil
	case paper.FFT2D:
		return s.FFT(2, n), nil
	default:
		return 0, fmt.Errorf("microbench: unknown metric %q", metric)
	}
}

// TransferSize is the paper's PCIe/D2D message size: 500 MB per direction.
const TransferSize = units.Bytes(500 * units.MB)

// TriadArrayBytes is the triad working set per array: "805 MB (192 ×1024
// ×1024 Bytes (LLC per Stack) × 4 (STREAM factor)) of double precision
// values per array".
const TriadArrayBytes = units.Bytes(4 * 192 * 1024 * 1024)

// GEMMN is the paper's square GEMM dimension.
const GEMMN = 20480
