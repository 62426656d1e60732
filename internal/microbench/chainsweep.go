//pvclint:ignore testonly DESIGN §3 X18 kernel-size sweep: microbench.PeakFlopsSweep and its knee
package microbench

import (
	"fmt"

	"pvcsim/internal/hw"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// ChainSweepPoint is one point of the clpeak-style kernel-size sweep: the
// achieved flop rate of an FMA-chain launch of the given total work,
// showing the launch-overhead-dominated → compute-dominated transition.
type ChainSweepPoint struct {
	Work     float64 // total flops in the launch
	Time     units.Seconds
	Achieved units.Rate
	Fraction float64 // of the sustained one-stack peak
}

// PeakFlopsSweep launches FMA-chain kernels of increasing total work on
// one stack through the simulator and returns the efficiency curve. The
// paper's 16×128-FMA-per-item kernel at full device width sits far right
// of the knee; tiny launches are launch-latency bound — the reason
// microbenchmarks use "large enough" problems.
func (s *Suite) PeakFlopsSweep(prec ChainPrecision, works []float64) ([]ChainSweepPoint, error) {
	p := hw.FP64
	if prec == FP32Chain {
		p = hw.FP32
	}
	peak := float64(s.Model.VectorRate(perfmodel.KindPeakFlops, p))
	var out []ChainSweepPoint
	for _, work := range works {
		if work <= 0 {
			return nil, fmt.Errorf("microbench: non-positive work %v", work)
		}
		m, err := s.Target.Machine()
		if err != nil {
			return nil, err
		}
		st, err := m.Stack(s.Node.Subdevices()[0])
		if err != nil {
			return nil, err
		}
		prof := perfmodel.Profile{
			Name:      "fma-chain",
			Flops:     work,
			Precision: p,
			Kind:      perfmodel.KindPeakFlops,
		}
		var elapsed units.Seconds
		w := work
		m.Go("sweep", func(proc *sim.Proc) {
			start := proc.Now()
			st.LaunchKernel(proc, prof)
			elapsed = proc.Now() - start
		})
		if err := m.Run(); err != nil {
			return nil, err
		}
		achieved := units.RateOf(w, elapsed)
		out = append(out, ChainSweepPoint{
			Work:     w,
			Time:     elapsed,
			Achieved: achieved,
			Fraction: float64(achieved) / peak,
		})
	}
	return out, nil
}

// DefaultChainWorks spans launch-bound to saturated: 10⁶ to 10¹³ flops.
func DefaultChainWorks() []float64 {
	var out []float64
	for w := 1e6; w <= 1e13; w *= 10 {
		out = append(out, w)
	}
	return out
}

// KneeWork returns the smallest swept work reaching the given fraction of
// peak — the "large enough kernel" threshold.
func KneeWork(curve []ChainSweepPoint, fraction float64) (float64, error) {
	if len(curve) == 0 {
		return 0, fmt.Errorf("microbench: empty chain sweep")
	}
	for _, pt := range curve {
		if pt.Fraction >= fraction {
			return pt.Work, nil
		}
	}
	return 0, fmt.Errorf("microbench: no swept size reaches %.0f%% of peak", fraction*100)
}
