package workload

import (
	"context"
	"fmt"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/microbench"
	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// MetricSlug is the registry name of one Table II metric workload.
func MetricSlug(m paper.Metric) string {
	switch m {
	case paper.FP64Peak:
		return "fp64-peak"
	case paper.FP32Peak:
		return "fp32-peak"
	case paper.TriadBW:
		return "triad"
	case paper.PCIeH2D:
		return "pcie-h2d"
	case paper.PCIeD2H:
		return "pcie-d2h"
	case paper.PCIeBidir:
		return "pcie-bidir"
	case paper.DGEMM:
		return "dgemm"
	case paper.SGEMM:
		return "sgemm"
	case paper.HGEMM:
		return "hgemm"
	case paper.BF16GEMM:
		return "bf16gemm"
	case paper.TF32GEMM:
		return "tf32gemm"
	case paper.I8GEMM:
		return "i8gemm"
	case paper.FFT1D:
		return "fft1d"
	case paper.FFT2D:
		return "fft2d"
	default:
		return ""
	}
}

// MetricUnit returns the paper's unit for a Table II row.
func MetricUnit(m paper.Metric) string {
	switch m {
	case paper.TriadBW:
		return "TB/s"
	case paper.PCIeH2D, paper.PCIeD2H, paper.PCIeBidir:
		return "GB/s"
	case paper.I8GEMM:
		return "TIop/s"
	default:
		return "TFlop/s"
	}
}

// MetricBound names the resource that bounds a Table II row.
func MetricBound(m paper.Metric) string {
	switch m {
	case paper.FP64Peak, paper.FP32Peak:
		return "vector compute"
	case paper.TriadBW:
		return "HBM bandwidth"
	case paper.PCIeH2D, paper.PCIeD2H, paper.PCIeBidir:
		return "PCIe bandwidth"
	case paper.FFT1D, paper.FFT2D:
		return "compute + HBM"
	default:
		return "matrix compute"
	}
}

// TableIIScopes lists the three Table II column granularities in order.
var TableIIScopes = []paper.Scope{paper.OneStack, paper.OnePVC, paper.FullNode}

// pvcSystems are the two systems Table II/III are published for.
func pvcSystems() []topology.System { return []topology.System{topology.Aurora, topology.Dawn} }

// NewMetricCell wraps one Table II metric: it evaluates the metric at
// the three column scopes (one stack, one PVC, full node) on the cell's
// node.
func NewMetricCell(m paper.Metric) *Workload {
	return New(MetricSlug(m),
		fmt.Sprintf("Table II row: %s", m),
		fmt.Sprintf("metric=%s scopes=stack,pvc,node", m),
		pvcSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			suite := microbench.NewSuiteOn(t)
			var res Result
			for _, sc := range TableIIScopes {
				v, err := suite.Run(m, sc)
				if err != nil {
					return Result{}, err
				}
				res.Values = append(res.Values, Value{
					Metric: string(m),
					Scope:  sc.String(),
					Value:  v,
					Unit:   MetricUnit(m),
					Bound:  MetricBound(m),
				})
			}
			return res, nil
		})
}

// NewP2PCell wraps the Table III stack-to-stack benchmark (E6).
func NewP2PCell() *Workload {
	return New("p2p",
		"Table III: stack-to-stack point-to-point bandwidth",
		fmt.Sprintf("msg=%v", microbench.TransferSize),
		pvcSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			suite := microbench.NewSuiteOn(t)
			got, err := suite.P2P()
			if err != nil {
				return Result{}, err
			}
			rows := []struct {
				name     string
				one, all float64
			}{
				{"Local Uni", got.LocalUniOne, got.LocalUniAll},
				{"Local Bidir", got.LocalBidirOne, got.LocalBidirAll},
				{"Remote Uni", got.RemoteUniOne, got.RemoteUniAll},
				{"Remote Bidir", got.RemoteBidirOne, got.RemoteBidirAll},
			}
			var res Result
			for _, r := range rows {
				res.Values = append(res.Values,
					Value{Metric: r.name, Scope: "One Pair", Value: r.one, Unit: "GB/s", Bound: "fabric bandwidth"},
					Value{Metric: r.name, Scope: "All Pairs", Value: r.all, Unit: "GB/s", Bound: "fabric bandwidth"})
			}
			res.Values = append(res.Values,
				Value{Metric: "Pairs", Scope: "", Value: float64(got.Pairs), Unit: "pairs", Bound: "topology"})
			return res, nil
		})
}

// NewLatsCell wraps the Figure 1 pointer-chase latency ladder (E7),
// including the per-level plateau values the paper's cross-architecture
// ratios are stated over. The registry's "lats" entry uses the paper's
// default range; the range is part of the workload's parameters, so
// differently-ranged instances memoize independently in the runner.
func NewLatsCell(lo, hi units.Bytes) *Workload {
	return New("lats",
		"Figure 1: memory access latency ladder (coalesced pointer chase)",
		fmt.Sprintf("lo=%d hi=%d", int64(lo), int64(hi)),
		topology.AllSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			suite := microbench.NewSuiteOn(t)
			var res Result
			for _, p := range suite.Lats(lo, hi) {
				res.Values = append(res.Values, Value{
					Metric: "latency",
					Scope:  p.Level,
					Value:  p.Cycles,
					Unit:   "cycles",
					Bound:  "memory latency",
					X:      float64(p.Footprint),
				})
			}
			for _, level := range []string{"L1", "L2", "HBM"} {
				res.Values = append(res.Values, Value{
					Metric: "plateau",
					Scope:  level,
					Value:  suite.LatsPlateau(level),
					Unit:   "cycles",
					Bound:  "memory latency",
				})
			}
			return res, nil
		})
}

// NewP2PSweepCell wraps the X1 extension: the message-size sweep
// extending Table III down to latency-bound messages, per path kind.
func NewP2PSweepCell() *Workload {
	kinds := []struct {
		name string
		kind topology.PathKind
	}{
		{"local", topology.LocalStack},
		{"remote", topology.RemoteDirect},
		{"extra", topology.RemoteExtraHop},
	}
	return New("p2p-sweep",
		"X1: P2P latency-bandwidth curves per path kind",
		"sizes=default paths=local,remote,extra",
		pvcSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			suite := microbench.NewSuiteOn(t)
			sizes := microbench.DefaultSweepSizes()
			var res Result
			for _, k := range kinds {
				curve, err := suite.P2PSweep(k.kind, sizes)
				if err != nil {
					return Result{}, err
				}
				for i, pt := range curve {
					res.Values = append(res.Values, Value{
						Metric: k.name,
						Scope:  sizes[i].String(),
						Value:  float64(pt.Bandwidth) / 1e9,
						Unit:   "GB/s",
						Bound:  "fabric bandwidth",
						X:      float64(sizes[i]),
					})
				}
				if n12, err := microbench.HalfPeakSize(curve); err == nil {
					res.Values = append(res.Values, Value{
						Metric: "n_1/2",
						Scope:  k.name,
						Value:  float64(n12),
						Unit:   "bytes",
						Bound:  "fabric latency",
					})
				}
			}
			return res, nil
		})
}

// fmaSweepWorks are the launch sizes of the X18 kernel-size sweep.
var fmaSweepWorks = []float64{1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12}

// NewFMASweepCell wraps the X18 extension: the launch-overhead →
// saturation knee of the FMA chain on one stack.
func NewFMASweepCell() *Workload {
	return New("fma-sweep",
		"X18: FMA-chain kernel-size sweep (launch overhead to saturation)",
		"prec=fp64 works=1e6..1e12",
		topology.AllSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			suite := microbench.NewSuiteOn(t)
			pts, err := suite.PeakFlopsSweep(microbench.FP64Chain, fmaSweepWorks)
			if err != nil {
				return Result{}, err
			}
			var res Result
			for _, pt := range pts {
				res.Values = append(res.Values, Value{
					Metric: "fraction-of-peak",
					Scope:  fmt.Sprintf("%.0e flop", pt.Work),
					Value:  pt.Fraction,
					Unit:   "ratio",
					Bound:  "launch latency vs compute",
					X:      pt.Work,
				})
			}
			return res, nil
		})
}
