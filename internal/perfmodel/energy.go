package perfmodel

import (
	"fmt"

	"pvcsim/internal/hw"
	"pvcsim/internal/units"
)

// EnergyReport quantifies energy-to-solution for a kernel on n
// subdevices: the paper's TDP discussion ("typically as a result of the
// TDP considerations available to the node at large") made quantitative.
type EnergyReport struct {
	Time       units.Seconds
	PowerW     float64 // aggregate sustained draw across the n domains
	EnergyJ    float64
	OpsPerWatt float64 // achieved operations per joule (GF/W × 1e9)
}

// EnergyToSolution evaluates a fixed amount of work (total operations) of
// the given kind/precision on n subdevices. The power draw comes from the
// governor's cube-law model at the governed clock — for TDP-limited
// workloads (PVC FP64) that is the domain cap itself; lighter workloads
// draw less.
func (m *Model) EnergyToSolution(kind Kind, prec hw.Precision, ops float64, n int) (EnergyReport, error) {
	if ops <= 0 || n < 1 || n > m.Node.TotalStacks() {
		return EnergyReport{}, fmt.Errorf("perfmodel: bad energy query (ops=%g, n=%d)", ops, n)
	}
	rate := m.AggregateRate(kind, prec, n)
	if rate <= 0 {
		return EnergyReport{}, fmt.Errorf("perfmodel: zero rate for %v/%v", kind, prec)
	}
	t := units.TimeToCompute(ops, rate)
	// Per-domain draw at the workload's governed operating point.
	_, class := m.Gov.BestSustainedPeak(prec)
	w := hw.ClassOf(class, prec)
	clock := m.Gov.OperatingClock(w)
	perDomain := m.Gov.PowerAt(w, clock)
	total := perDomain * float64(n)
	//pvclint:ignore timeunit energy = watts x seconds deliberately leaves the time domain here
	e := total * float64(t)
	return EnergyReport{
		Time:       t,
		PowerW:     total,
		EnergyJ:    e,
		OpsPerWatt: ops / e,
	}, nil
}
