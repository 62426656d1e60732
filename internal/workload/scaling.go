package workload

import (
	"context"
	"fmt"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/miniapps/cloverleaf"
	"pvcsim/internal/topology"
)

// Clover-scaling run shape: one rank per subdevice on an edge² strip
// for a few steps — small enough to run everywhere in milliseconds,
// large enough that the halo exchanges and the dt allreduce exercise
// every fabric path (MDFI, peer links, host pools).
const (
	cloverScalingEdge  = 256
	cloverScalingSteps = 3
)

// NewCloverScalingCell wraps the decomposed CloverLeaf weak-scaling
// breakdown (X3) as a registry workload. Unlike the analytic Table VI
// FOM rows it builds and drives a discrete-event machine, so a
// traced run of this cell shows the full timeline: hydro kernels per
// stack, halo-exchange flows, and the allreduce fan-in.
func NewCloverScalingCell() *Spec {
	return New("clover-scaling",
		"X3: decomposed CloverLeaf weak scaling with MPI-overhead breakdown",
		fmt.Sprintf("edge=%d steps=%d ranks=node", cloverScalingEdge, cloverScalingSteps),
		topology.AllSystems(),
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			mach, err := t.Machine()
			if err != nil {
				return Result{}, err
			}
			n := t.Node.TotalStacks()
			total, comm, err := cloverleaf.WeakScalingBreakdownOn(mach, n, cloverScalingEdge, cloverScalingSteps)
			if err != nil {
				return Result{}, err
			}
			frac := 0.0
			if total > 0 {
				frac = float64(comm) / float64(total) * 100
			}
			return Result{Values: []Value{
				{Metric: "total", Scope: fmt.Sprintf("%d ranks", n), Value: float64(total) * 1e3, Unit: "ms", Bound: "memory"},
				{Metric: "comm", Scope: fmt.Sprintf("%d ranks", n), Value: float64(comm) * 1e3, Unit: "ms", Bound: "fabric"},
				{Metric: "comm fraction", Scope: fmt.Sprintf("%d ranks", n), Value: frac, Unit: "%", Bound: "fabric"},
			}}, nil
		})
}
