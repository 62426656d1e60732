package workload

import (
	"context"
	"fmt"

	"pvcsim/internal/apps/hacc"
	"pvcsim/internal/apps/openmc"
	"pvcsim/internal/expected"
	"pvcsim/internal/gpusim"
	"pvcsim/internal/hw"
	"pvcsim/internal/miniapps/cloverleaf"
	"pvcsim/internal/miniapps/minibude"
	"pvcsim/internal/miniapps/miniqmc"
	"pvcsim/internal/miniapps/rimp2"
	"pvcsim/internal/paper"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/topology"
)

// FOMName maps a paper workload to its registry name.
func FOMName(w paper.Workload) (string, bool) {
	switch w {
	case paper.MiniBUDE:
		return "minibude", true
	case paper.CloverLeaf:
		return "cloverleaf", true
	case paper.MiniQMC:
		return "miniqmc", true
	case paper.MiniGAMESS:
		return "minigamess", true
	case paper.OpenMC:
		return "openmc", true
	case paper.HACC:
		return "hacc", true
	default:
		return "", false
	}
}

// FOMGranularities lists the Table VI column granularities in order.
var FOMGranularities = []expected.Granularity{expected.PerStack, expected.PerGPU, expected.PerNode}

// NewFOMCell wraps one Table V/VI workload: it evaluates the figure
// of merit at every granularity the paper defines for it (blank cells
// produce no value, exactly as published — mini-GAMESS on MI250, the
// non-MPI miniBUDE at full node, the node-only applications).
func NewFOMCell(w paper.Workload) *Workload {
	c := paper.TableV[w]
	return New(mustFOMName(w),
		fmt.Sprintf("Table VI row: %s (%s, %s-bound)", w, c.Domain, c.Bound),
		fmt.Sprintf("workload=%s grans=stack,gpu,node", w),
		topology.AllSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			var res Result
			for _, g := range FOMGranularities {
				v, ok, err := EvalFOM(w, t.Node.System, g)
				if err != nil {
					return Result{}, err
				}
				if !ok {
					continue
				}
				res.Values = append(res.Values, Value{
					Metric: string(w),
					Scope:  g.String(),
					Value:  v,
					Unit:   c.FOMUnit,
					Bound:  c.Bound,
				})
			}
			return res, nil
		})
}

func mustFOMName(w paper.Workload) string {
	n, ok := FOMName(w)
	if !ok {
		panic(fmt.Sprintf("workload: no FOM name for %q", w))
	}
	return n
}

// EvalFOM evaluates one workload × system × granularity cell, mirroring
// the coverage of Table VI: cells the paper leaves blank return ok=false,
// and configurations that failed in the paper (mini-GAMESS on MI250)
// return a blank cell rather than an error.
func EvalFOM(w paper.Workload, sys topology.System, g expected.Granularity) (float64, bool, error) {
	node := topology.NewNode(sys)
	n := 1
	switch g {
	case expected.PerGPU:
		n = node.GPU.SubCount
	case expected.PerNode:
		n = node.TotalStacks()
	}
	switch w {
	case paper.MiniBUDE:
		// Not an MPI app: one-stack result only; "we doubled the
		// single-Stack value to get a full PVC value".
		fom, _ := minibude.FOM(sys)
		switch g {
		case expected.PerStack:
			return fom, true, nil
		case expected.PerGPU:
			return fom * float64(node.GPU.SubCount), true, nil
		default:
			return 0, false, nil
		}
	case paper.CloverLeaf:
		v, err := cloverleaf.FOM(sys, n)
		return v, err == nil, err
	case paper.MiniQMC:
		v, err := miniqmc.FOM(sys, n)
		return v, err == nil, err
	case paper.MiniGAMESS:
		v, err := rimp2.FOM(sys, n)
		if err == rimp2.ErrUnsupported {
			return 0, false, nil // blank cell, as published
		}
		return v, err == nil, err
	case paper.OpenMC:
		if g != expected.PerNode {
			return 0, false, nil
		}
		v, err := openmc.FOM(sys, n)
		return v, err == nil, err
	case paper.HACC:
		if g != expected.PerNode {
			return 0, false, nil
		}
		v, err := hacc.FOM(sys)
		return v, err == nil, err
	default:
		return 0, false, fmt.Errorf("workload: unknown workload %q", w)
	}
}

// NewBUDESweepCell wraps the miniBUDE ppwi/work-group tuning surface
// behind the paper's "combination of poses per work-item and work-group
// sizes" search (the occupancy model's register cliff made visible).
func NewBUDESweepCell() *Workload {
	return New("minibude-sweep",
		"miniBUDE ppwi/work-group tuning surface (occupancy model)",
		"ppwi=1,2,4,8,16 wg=64,128,256",
		topology.AllSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			best, sweep := minibude.FOM(t.Node.System)
			res := Result{Values: []Value{{
				Metric: "best",
				Scope:  "",
				Value:  best,
				Unit:   "GInteractions/s",
				Bound:  "FP32 compute",
			}}}
			for _, pt := range sweep {
				res.Values = append(res.Values, Value{
					Metric: fmt.Sprintf("ppwi=%d", pt.PPWI),
					Scope:  fmt.Sprintf("wg=%d", pt.WGSize),
					Value:  pt.GInterS,
					Unit:   "GInteractions/s",
					Bound:  "FP32 compute",
					X:      float64(pt.PPWI),
				})
			}
			return res, nil
		})
}

// energySpecs are the two fixed workloads of the X21 energy comparison.
var energySpecs = []struct {
	name string
	kind perfmodel.Kind
	prec hw.Precision
}{
	{"DGEMM", perfmodel.KindGEMM, hw.FP64},
	{"FP32 FMA", perfmodel.KindPeakFlops, hw.FP32},
}

// EnergyWork is the fixed work of the X21 comparison: 10 Pflop.
const EnergyWork = 1e16

// NewEnergyCell wraps the X12/X21 extension: full-node energy to
// solution for a fixed DGEMM and FP32-FMA workload.
func NewEnergyCell() *Workload {
	return New("energy",
		"X21: full-node energy to solution (DGEMM and FP32 FMA, 10 Pflop)",
		fmt.Sprintf("work=%.0e", EnergyWork),
		topology.AllSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			model := t.Model()
			var res Result
			for _, spec := range energySpecs {
				rep, err := model.EnergyToSolution(spec.kind, spec.prec, EnergyWork, t.Node.TotalStacks())
				if err != nil {
					return Result{}, err
				}
				res.Values = append(res.Values,
					Value{Metric: spec.name, Scope: "time", Value: float64(rep.Time), Unit: "s", Bound: "compute"},
					Value{Metric: spec.name, Scope: "power", Value: rep.PowerW, Unit: "W", Bound: "TDP"},
					Value{Metric: spec.name, Scope: "energy", Value: rep.EnergyJ / 1e3, Unit: "kJ", Bound: "TDP"},
					Value{Metric: spec.name, Scope: "efficiency", Value: rep.OpsPerWatt / 1e9, Unit: "GFlop/W", Bound: "TDP"})
			}
			return res, nil
		})
}
