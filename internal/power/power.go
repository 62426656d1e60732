// Package power models the TDP-constrained DVFS behaviour the paper
// observes on PVC (§IV-B2): "the GPU running at a lower frequency during
// FP64 FMA computations due to the TDP design of the platform. ... the PVC
// operated at ~1.2GHz for FP64 and ~1.6GHz for FP32 FMA operations."
//
// The governor uses a cube-law dynamic power model per power domain (one
// Xe-Stack or GCD):
//
//	P(f) = IdleW + CoreCount × CoreDynW × weight(workload) × (f/GHz)³
//
// and selects the highest frequency f ≤ MaxClock with P(f) ≤ the domain's
// share of the card power cap. The cube law (V ∝ f, P ∝ f·V²) is what
// makes Aurora (500 W, 56 cores/stack) settle at ~1.20 GHz and Dawn
// (600 W, 64 cores/stack) at ~1.22 GHz for the same FP64 FMA chain.
package power

import (
	"math"

	"pvcsim/internal/hw"
	"pvcsim/internal/obs"
	"pvcsim/internal/units"
)

// Governor computes operating frequencies for one device's power domains.
type Governor struct {
	dev *hw.DeviceSpec
	obs obs.Recorder
}

// NewGovernor returns a governor for the device.
func NewGovernor(dev *hw.DeviceSpec) *Governor { return &Governor{dev: dev} }

// Observe attaches a recorder; every governed clock below MaxClock is
// counted as a throttle event (power.throttle_events).
func (g *Governor) Observe(r obs.Recorder) { g.obs = r }

// weight returns the switching-energy weight for the workload class,
// defaulting to the memory-bound weight for unknown classes so that
// unmodeled workloads never throttle harder than a stream.
func (g *Governor) weight(w hw.WorkloadClass) float64 {
	if v, ok := g.dev.Power.Weights[w]; ok {
		return v
	}
	if v, ok := g.dev.Power.Weights[hw.MemoryBound]; ok {
		return v
	}
	return 0
}

// OperatingClock returns the sustained frequency for a domain running the
// given workload class, honoring the per-domain power cap and the maximum
// clock.
func (g *Governor) OperatingClock(w hw.WorkloadClass) units.Frequency {
	f, throttled := g.governedClock(w)
	if throttled {
		obs.Count(g.obs, "power.throttle_events", 1)
	}
	return f
}

// governedClock is the side-effect-free core of OperatingClock: the
// sustained frequency plus whether the TDP budget pinned it below
// MaxClock. Attribution queries go through this path so that asking
// "is this throttled?" never perturbs the throttle-event counters.
func (g *Governor) governedClock(w hw.WorkloadClass) (units.Frequency, bool) {
	p := g.dev.Power
	max := p.MaxClock
	wt := g.weight(w)
	if wt <= 0 {
		return max, false
	}
	budget := g.dev.DomainCapW() - p.IdleW
	if budget <= 0 {
		return p.IdleClock, p.IdleClock < max
	}
	denom := float64(g.dev.Sub.CoreCount) * p.CoreDynW * wt
	if denom <= 0 {
		return max, false
	}
	// Aurora pins the *idle* frequency at 1.6 GHz (§III); that setting
	// removes ramp-up transients but does not raise the sustained loaded
	// frequency, which the TDP budget alone determines.
	fGHz := math.Cbrt(budget / denom)
	f := units.Frequency(fGHz) * units.GHz
	if f > max {
		f = max
	}
	return f, f < max
}

// Throttled reports whether the governed clock for the pipeline and
// precision sits below MaxClock — i.e. the power cap, not the pipeline,
// is the binding resource. Unlike OperatingClock it records nothing.
func (g *Governor) Throttled(class hw.EngineClass, prec hw.Precision) bool {
	_, throttled := g.governedClock(hw.ClassOf(class, prec))
	return throttled
}

// PowerAt returns the modeled domain power draw in watts at frequency f
// under the given workload class.
func (g *Governor) PowerAt(w hw.WorkloadClass, f units.Frequency) float64 {
	p := g.dev.Power
	fGHz := float64(f) / float64(units.GHz)
	return p.IdleW + float64(g.dev.Sub.CoreCount)*p.CoreDynW*g.weight(w)*fGHz*fGHz*fGHz
}

// ClockFor is a convenience that classifies the pipeline/precision pair and
// returns its operating clock.
func (g *Governor) ClockFor(class hw.EngineClass, prec hw.Precision) units.Frequency {
	return g.OperatingClock(hw.ClassOf(class, prec))
}

// SustainedPeak returns the TDP-aware peak rate of one subdevice for the
// pipeline and precision: the per-clock throughput at the governed clock.
func (g *Governor) SustainedPeak(class hw.EngineClass, prec hw.Precision) units.Rate {
	return g.dev.Sub.PeakRate(class, prec, g.ClockFor(class, prec))
}

// BestSustainedPeak returns the higher of the vector and matrix sustained
// peaks for the precision, together with the winning pipeline — the rate a
// well-tuned GEMM targets.
func (g *Governor) BestSustainedPeak(prec hw.Precision) (units.Rate, hw.EngineClass) {
	v := g.SustainedPeak(hw.VectorEngine, prec)
	m := g.SustainedPeak(hw.MatrixEngine, prec)
	if m > v {
		return m, hw.MatrixEngine
	}
	return v, hw.VectorEngine
}
