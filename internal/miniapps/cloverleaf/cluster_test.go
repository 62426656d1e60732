package cloverleaf

import (
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// auroraCluster builds an Aurora cluster of the given node count.
func auroraCluster(t *testing.T, nodes int) *gpusim.Cluster {
	t.Helper()
	cl, err := gpusim.NewCluster(topology.NewCluster(topology.Aurora, nodes))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func strongRun(t *testing.T, nodes int, place topology.Placement) (total, comm units.Seconds) {
	t.Helper()
	total, comm, err := StrongScalingBreakdownOn(auroraCluster(t, nodes), place, 768, 2)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || comm <= 0 || comm >= total {
		t.Fatalf("%d nodes %v: total=%v comm=%v", nodes, place, total, comm)
	}
	return total, comm
}

// TestStrongScalingShrinksKernelTime: the same 768² grid over more
// nodes means thinner strips per rank, so compute time drops even
// though every halo column stays full height.
func TestStrongScalingShrinksKernelTime(t *testing.T) {
	t1, c1 := strongRun(t, 1, topology.PlacePacked)
	t2, c2 := strongRun(t, 2, topology.PlacePacked)
	if k1, k2 := t1-c1, t2-c2; k2 >= k1 {
		t.Errorf("kernel time did not shrink: 1 node %v, 2 nodes %v", k1, k2)
	}
}

// TestPlacementChangesCommTime: packed placement keeps most ±1
// neighbour pairs on-node; spread forces all of them across the NICs,
// so its communication share must be strictly larger.
func TestPlacementChangesCommTime(t *testing.T) {
	_, packed := strongRun(t, 2, topology.PlacePacked)
	_, spread := strongRun(t, 2, topology.PlaceSpread)
	if spread <= packed {
		t.Errorf("spread comm %v not slower than packed %v", spread, packed)
	}
}

// TestStrongScalingEdgeTooSmall: a grid with fewer columns than twice
// the rank count cannot be stripped.
func TestStrongScalingEdgeTooSmall(t *testing.T) {
	if _, _, err := StrongScalingBreakdownOn(auroraCluster(t, 2), topology.PlacePacked, 10, 1); err == nil {
		t.Error("undersized grid accepted")
	}
}
