//pvclint:ignore testonly DESIGN §3 X9 roofline tooling: perfmodel.Roofline
package perfmodel

import (
	"fmt"
	"math"

	"pvcsim/internal/hw"
	"pvcsim/internal/units"
)

// RooflinePoint is one sample of a roofline curve: achievable throughput
// at an arithmetic intensity.
type RooflinePoint struct {
	Intensity float64 // flop per byte
	Rate      units.Rate
	Bound     string // "memory" or "compute"
}

// Roofline samples the classic roofline of one subdevice for a precision
// and kernel kind: min(AI × sustained bandwidth, calibrated compute
// peak), across a log-spaced intensity range. The ridge point is where
// the two meet — the paper's Table V classifications are positions
// relative to this ridge.
func (m *Model) Roofline(kind Kind, prec hw.Precision, loAI, hiAI float64, points int) ([]RooflinePoint, error) {
	if loAI <= 0 || hiAI <= loAI || points < 2 {
		return nil, fmt.Errorf("perfmodel: bad roofline range [%g, %g] x%d", loAI, hiAI, points)
	}
	bw := float64(m.MemBandwidth(1))
	peak := float64(m.SustainedRate(kind, prec))
	ratio := hiAI / loAI
	out := make([]RooflinePoint, points)
	for i := 0; i < points; i++ {
		ai := loAI * math.Pow(ratio, float64(i)/float64(points-1))
		memRate := ai * bw
		pt := RooflinePoint{Intensity: ai}
		if memRate < peak {
			pt.Rate = units.Rate(memRate)
			pt.Bound = "memory"
		} else {
			pt.Rate = units.Rate(peak)
			pt.Bound = "compute"
		}
		out[i] = pt
	}
	return out, nil
}

// RidgeIntensity returns the arithmetic intensity at which the subdevice
// transitions from memory- to compute-bound for the kind/precision.
func (m *Model) RidgeIntensity(kind Kind, prec hw.Precision) float64 {
	bw := float64(m.MemBandwidth(1))
	if bw == 0 {
		return 0
	}
	return float64(m.SustainedRate(kind, prec)) / bw
}
