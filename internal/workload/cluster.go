package workload

import (
	"context"
	"fmt"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/miniapps/cloverleaf"
	"pvcsim/internal/mpirt"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Cluster cells: workloads that build a multi-node cluster of the cell's
// system through its target. The cluster carries the cell's recorder and
// wall probe, so traces, metrics, bound-attribution profiles (including
// the fabric.remote-node residency of inter-node flows) and wall-clock
// profiles work exactly as for node cells.

// CloverStrongEdge and CloverStrongSteps fix the strong-scaling problem:
// a globalEdge² grid stepped a few times, large enough that 4-node runs
// still give every rank a multi-column strip.
const (
	CloverStrongEdge  = 768
	CloverStrongSteps = 2
)

// NewCloverStrongCell builds one strong-scaling cell: CloverLeaf's
// fixed-size grid decomposed across every stack of a nodes-node cluster
// of the system, ranks placed under the given policy.
func NewCloverStrongCell(name string, sys topology.System, nodes int, place topology.Placement) *Workload {
	return New(name,
		fmt.Sprintf("CloverLeaf strong scaling: %d-node %s cluster, %s placement", nodes, sys, place),
		fmt.Sprintf("system=%s nodes=%d placement=%s edge=%d steps=%d",
			sys, nodes, place, CloverStrongEdge, CloverStrongSteps),
		[]topology.System{sys},
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			spec := topology.NewCluster(sys, nodes)
			cl, err := t.Cluster(spec)
			if err != nil {
				return Result{}, err
			}
			total, comm, err := cloverleaf.StrongScalingBreakdownOn(cl, place, CloverStrongEdge, CloverStrongSteps)
			if err != nil {
				return Result{}, err
			}
			frac := 0.0
			if total > 0 {
				frac = float64(comm) / float64(total) * 100
			}
			scope := fmt.Sprintf("%d nodes/%d ranks", nodes, spec.TotalStacks())
			return Result{Values: []Value{
				{Metric: "total", Scope: scope, Value: float64(total) * 1e3, Unit: "ms", Bound: "memory", X: float64(nodes)},
				{Metric: "comm", Scope: scope, Value: float64(comm) * 1e3, Unit: "ms", Bound: "fabric", X: float64(nodes)},
				{Metric: "comm fraction", Scope: scope, Value: frac, Unit: "%", Bound: "fabric", X: float64(nodes)},
			}}, nil
		})
}

// AllreduceCount is the fixed element count of the allreduce cells.
const AllreduceCount = 1 << 16

// NewAllreduceCell builds one collective cell: a single allreduce of
// AllreduceCount elements of the given precision across every stack of
// a nodes-node cluster, using recursive doubling ("rd") or the ring
// algorithm ("ring").
func NewAllreduceCell(name string, sys topology.System, nodes int, prec, algo string) *Workload {
	elem := 8
	if prec == "fp32" {
		elem = 4
	}
	payload := AllreduceCount * elem
	return New(name,
		fmt.Sprintf("Allreduce (%s, %s) across a %d-node %s cluster", prec, algo, nodes, sys),
		fmt.Sprintf("system=%s nodes=%d prec=%s algo=%s count=%d", sys, nodes, prec, algo, AllreduceCount),
		[]topology.System{sys},
		func(ctx context.Context, t *gpusim.Target) (Result, error) {
			spec := topology.NewCluster(sys, nodes)
			cl, err := t.Cluster(spec)
			if err != nil {
				return Result{}, err
			}
			c, err := mpirt.NewClusterComm(cl, spec.TotalStacks(), topology.PlacePacked)
			if err != nil {
				return Result{}, err
			}
			elapsed, err := runAllreduce(c, units.Bytes(payload), algo)
			if err != nil {
				return Result{}, err
			}
			scope := fmt.Sprintf("%d nodes/%d ranks", nodes, spec.TotalStacks())
			bw := 0.0
			if elapsed > 0 {
				// Algorithm bandwidth: each rank moves ~2(n−1)/n of the
				// payload, the standard allreduce cost metric.
				n := float64(spec.TotalStacks())
				bw = 2 * (n - 1) / n * float64(payload) / float64(elapsed) / 1e9
			}
			return Result{Values: []Value{
				{Metric: "time", Scope: scope, Value: float64(elapsed) * 1e6, Unit: "us", Bound: "fabric", X: float64(nodes)},
				{Metric: "bus bw", Scope: scope, Value: bw, Unit: "GB/s", Bound: "fabric", X: float64(nodes)},
			}}, nil
		})
}

// runAllreduce executes one allreduce of size bytes on every rank of
// the communicator and returns the finish time of the slowest rank.
func runAllreduce(c *mpirt.Comm, size units.Bytes, algo string) (units.Seconds, error) {
	// Per-rank finish slots; the slowest rank is their max.
	finishes := make([]units.Seconds, c.Size())
	err := c.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
		var e error
		if algo == "ring" {
			e = r.AllreduceRing(p, 100, size)
		} else {
			e = r.Allreduce(p, size, 100)
		}
		if e != nil {
			panic(e)
		}
		finishes[r.Rank()] = p.Now()
	})
	var finish units.Seconds
	for _, t := range finishes {
		if t > finish {
			finish = t
		}
	}
	return finish, err
}
