package microbench

import (
	"pvcsim/internal/hw"
	"pvcsim/internal/paper"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/stats"
)

// ChainPrecision selects the FMA-chain precision.
type ChainPrecision int

// FMA-chain variants.
const (
	FP64Chain ChainPrecision = iota
	FP32Chain
)

// PeakFlops runs the peak-compute microbenchmark ("chain of FMA to measure
// FLOPS", 16×128 FMAs per work-item) on n subdevices and returns TFlop/s.
// The rate comes from the calibrated model (99% of the TDP-governed
// vector peak, with the measured multi-stack scaling anchors); best-of-N
// repetition follows the §IV-A policy.
func (s *Suite) PeakFlops(prec ChainPrecision, n int) float64 {
	p := hw.FP64
	if prec == FP32Chain {
		p = hw.FP32
	}
	return stats.BestOf(s.Repeats, func() float64 {
		rate := s.Model.AggregateVectorRate(perfmodel.KindPeakFlops, p, n)
		return float64(rate) / 1e12
	})
}

// GEMM runs the N=20480 square GEMM in the given precision on n
// subdevices and returns TFlop/s (TIop/s for I8).
func (s *Suite) GEMM(prec hw.Precision, n int) float64 {
	return stats.BestOf(s.Repeats, func() float64 {
		rate := s.Model.AggregateRate(perfmodel.KindGEMM, prec, n)
		return float64(rate) / 1e12
	})
}

// gemmPrecision maps a Table II GEMM row to its precision.
func gemmPrecision(m paper.Metric) hw.Precision {
	switch m {
	case paper.DGEMM:
		return hw.FP64
	case paper.SGEMM:
		return hw.FP32
	case paper.HGEMM:
		return hw.FP16
	case paper.BF16GEMM:
		return hw.BF16
	case paper.TF32GEMM:
		return hw.TF32
	default:
		return hw.I8
	}
}

// FFT runs the single-precision C2C FFT benchmark (1-D sizes 4096 and
// 20000, 2-D size 10000²) on n subdevices and returns TFlop/s by the
// paper's 5·N·log2(N) convention.
func (s *Suite) FFT(dims int, n int) float64 {
	kind := perfmodel.KindFFT1D
	if dims == 2 {
		kind = perfmodel.KindFFT2D
	}
	return stats.BestOf(s.Repeats, func() float64 {
		rate := s.Model.AggregateVectorRate(kind, hw.FP32, n)
		return float64(rate) / 1e12
	})
}
