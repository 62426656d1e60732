package cloverleaf

import (
	"fmt"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/mpirt"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// StrongScalingBreakdownOn runs the strong-scaled timing model on a
// cluster: a fixed globalEdge² grid is split into vertical strips across
// every stack of every node, so per-rank kernel work shrinks as the
// cluster grows while each halo column stays globalEdge cells tall.
// Halo exchanges between ranks on different nodes cross the inter-node
// network (the fabric.remote-node flows), which is exactly where the
// placement policy shows up: packed placement keeps most ±1 neighbours
// on-node, spread placement forces every exchange over the NICs. The
// caller builds the cluster, so a runner cell observes the run (kernel
// spans, halo flows on every path kind, the dt allreduce) through the
// cluster's attached recorder.
func StrongScalingBreakdownOn(cl *gpusim.Cluster, place topology.Placement,
	globalEdge, steps int) (total, comm units.Seconds, err error) {
	n := cl.Spec.TotalStacks()
	if globalEdge < 2*n {
		return 0, 0, fmt.Errorf("cloverleaf: edge %d too small for %d strips", globalEdge, n)
	}
	c, err := mpirt.NewClusterComm(cl, n, place)
	if err != nil {
		return 0, 0, err
	}
	haloBytes := units.Bytes(globalEdge * fieldsPerHalo * 8)
	// Strip widths follow NewDecomposed: nx/k everywhere, the first
	// nx%k strips one column wider.
	width := func(rank int) int {
		w := globalEdge / n
		if rank < globalEdge%n {
			w++
		}
		return w
	}
	var commTime units.Seconds
	finishes := make([]units.Seconds, c.Size())
	runErr := c.Spawn(func(p *sim.Proc, r *mpirt.Rank) {
		kernelProf := perfmodel.Profile{
			Name:      "hydro-step",
			MemBytes:  units.Bytes(float64(globalEdge) * float64(width(r.Rank())) * BytesPerCellStep),
			Kind:      perfmodel.KindStream,
			Precision: 0,
		}
		for step := 0; step < steps; step++ {
			r.Stack.LaunchKernel(p, kernelProf)
			t0 := p.Now()
			// Halo exchange with ±1 neighbours in rank order.
			if r.Rank() > 0 {
				if err := r.Sendrecv(p, r.Rank()-1, r.Rank()-1, 1000+step, haloBytes); err != nil {
					panic(err)
				}
			}
			if r.Rank() < r.Size()-1 {
				if err := r.Sendrecv(p, r.Rank()+1, r.Rank()+1, 1000+step, haloBytes); err != nil {
					panic(err)
				}
			}
			// dt reduction.
			if err := r.Allreduce(p, 8, 5000+step*100); err != nil {
				panic(err)
			}
			if r.Rank() == 0 {
				commTime += p.Now() - t0
			}
		}
		finishes[r.Rank()] = p.Now()
	})
	if runErr != nil {
		return 0, 0, runErr
	}
	return maxSeconds(finishes), commTime, nil
}
