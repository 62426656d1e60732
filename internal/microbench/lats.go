package microbench

import (
	"pvcsim/internal/mem"
	"pvcsim/internal/units"
)

// LatsPoint is one Figure 1 sample: memory access latency in cycles at a
// working-set footprint.
type LatsPoint struct {
	Footprint units.Bytes
	Cycles    float64
	Level     string // which hierarchy level dominates at this footprint
}

// LatsDefaultLo and LatsDefaultHi bound the default Figure 1 sweep.
const (
	LatsDefaultLo = 1 * units.KiB
	LatsDefaultHi = 8 * units.GB
)

// Lats runs the memory latency benchmark (§IV-A7): a coalesced
// pointer-chase over power-of-two footprints, returning the latency
// ladder in clock cycles, the y-axis of Figure 1.
func (s *Suite) Lats(lo, hi units.Bytes) []LatsPoint {
	h := mem.NewHierarchy(&s.Node.GPU.Sub)
	h.Obs = s.Target.Obs
	var out []LatsPoint
	for w := lo; w <= hi; w *= 2 {
		out = append(out, LatsPoint{
			Footprint: w,
			Cycles:    h.AvgLatencyCycles(w),
			Level:     h.LevelFor(w).Name,
		})
	}
	return out
}

// LatsPlateau returns the latency plateau of one named hierarchy level
// ("L1", "L2", "HBM") in cycles — the values the paper's Figure 1
// cross-architecture ratios are stated over.
func (s *Suite) LatsPlateau(level string) float64 {
	for _, c := range s.Node.GPU.Sub.Caches {
		if c.Name == level {
			return c.LatencyCycles
		}
	}
	return 0
}

// LatsSimulated cross-checks one footprint with the execution-driven
// cache simulator: it builds a real pointer-chase ring, replays it through
// a random-replacement set-associative cache model, and returns the
// average observed latency in cycles. Footprints are capped at a few MiB
// to keep host memory bounded; larger footprints use the analytic ladder.
func (s *Suite) LatsSimulated(footprint units.Bytes, seed int64) (float64, error) {
	h := mem.NewHierarchy(&s.Node.GPU.Sub)
	nodes := int(footprint / mem.DefaultStride)
	if nodes < 2 {
		nodes = 2
	}
	r, err := mem.NewRing(nodes, mem.DefaultStride, seed)
	if err != nil {
		return 0, err
	}
	cs := mem.NewCacheSim(h, 16, mem.PolicyRandom)
	avg := mem.SimulateChase(r, cs, 2)
	cs.ReportTo(s.Target.Obs)
	return avg, nil
}
