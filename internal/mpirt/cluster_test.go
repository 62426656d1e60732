package mpirt

import (
	"strings"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func auroraClusterComm(t *testing.T, nodes, nranks int, place topology.Placement) *Comm {
	t.Helper()
	cl, err := gpusim.NewCluster(topology.NewCluster(topology.Aurora, nodes))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClusterComm(cl, nranks, place)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterCommSetup(t *testing.T) {
	c := auroraClusterComm(t, 2, 24, topology.PlacePacked)
	if c.Size() != 24 {
		t.Errorf("size = %d", c.Size())
	}
	if c.m != nil {
		t.Error("cluster comm must not expose a single machine")
	}
	if c.cl == nil {
		t.Error("cluster accessor")
	}
	cl, err := gpusim.NewCluster(topology.NewCluster(topology.Aurora, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClusterComm(cl, 25, topology.PlacePacked); err == nil {
		t.Error("25 ranks on a 24-stack cluster should bind-fail")
	}
}

// TestClusterPlacementNodes checks the rank→node mapping the policies
// promise: packed fills node 0's 12 stacks before node 1, spread deals
// ranks round-robin.
func TestClusterPlacementNodes(t *testing.T) {
	packed := auroraClusterComm(t, 2, 24, topology.PlacePacked)
	spread := auroraClusterComm(t, 2, 24, topology.PlaceSpread)
	for rank := 0; rank < 24; rank++ {
		if got, want := packed.ranks[rank].Node, rank/12; got != want {
			t.Errorf("packed rank %d on node %d, want %d", rank, got, want)
		}
		if got, want := spread.ranks[rank].Node, rank%2; got != want {
			t.Errorf("spread rank %d on node %d, want %d", rank, got, want)
		}
	}
}

// TestInterNodeSendCrossesFabric runs a two-rank exchange placed on
// different nodes and checks the transfer is routed over the inter-node
// network: the flow span carries the fabric.remote-node bound and takes
// at least the remote round-trip latency.
func TestInterNodeSendCrossesFabric(t *testing.T) {
	cl, err := gpusim.NewCluster(topology.NewCluster(topology.Aurora, 2))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	cl.Observe(tr)
	c, err := NewClusterComm(cl, 2, topology.PlaceSpread)
	if err != nil {
		t.Fatal(err)
	}
	size := units.Bytes(100 * units.MB)
	var elapsed units.Seconds
	if err := c.Spawn(func(p *sim.Proc, r *Rank) {
		start := p.Now()
		switch r.Rank() {
		case 0:
			if err := r.Send(p, 1, 7, size); err != nil {
				t.Error(err)
			}
		case 1:
			if err := r.Recv(p, 0, 7); err != nil {
				t.Error(err)
			}
			elapsed = p.Now() - start
		}
	}); err != nil {
		t.Fatal(err)
	}
	lat := cl.Spec.Network.RemoteLatency()
	if elapsed < lat {
		t.Errorf("inter-node recv finished in %v, below the remote latency %v", elapsed, lat)
	}
	// 25 GB/s injection bandwidth, one uncontended flow.
	approx(t, "inter-node send bandwidth", float64(size)/float64(elapsed-lat), 25e9, 0.01)
	var n2n int
	for _, s := range tr.Spans() {
		if s.Cat == "flow" && strings.HasPrefix(s.Name, "n2n:") {
			n2n++
			if s.Bound != prof.BoundFabricNode {
				t.Errorf("inter-node flow bound = %q, want %q", s.Bound, prof.BoundFabricNode)
			}
		}
	}
	if n2n != 1 {
		t.Errorf("recorded %d n2n flows, want 1", n2n)
	}
}

// TestSpreadSlowerThanPacked: the same neighbour exchange costs more
// under spread placement because every ±1 pair straddles the fabric,
// while packed keeps 11 of 12 neighbour pairs per node on MDFI/Xe
// links.
func TestSpreadSlowerThanPacked(t *testing.T) {
	exchange := func(place topology.Placement) units.Seconds {
		c := auroraClusterComm(t, 2, 24, place)
		var worst units.Seconds
		if err := c.Spawn(func(p *sim.Proc, r *Rank) {
			size := units.Bytes(10 * units.MB)
			if r.Rank() > 0 {
				if err := r.Sendrecv(p, r.Rank()-1, r.Rank()-1, 1, size); err != nil {
					t.Error(err)
				}
			}
			if r.Rank() < r.Size()-1 {
				if err := r.Sendrecv(p, r.Rank()+1, r.Rank()+1, 1, size); err != nil {
					t.Error(err)
				}
			}
			if p.Now() > worst {
				worst = p.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	packed, spread := exchange(topology.PlacePacked), exchange(topology.PlaceSpread)
	if spread <= packed {
		t.Errorf("spread exchange %v not slower than packed %v", spread, packed)
	}
}

// TestClusterAllreduce checks the collective completes across nodes and
// is slower than the same-size single-node allreduce.
func TestClusterAllreduce(t *testing.T) {
	run := func(c *Comm) units.Seconds {
		var worst units.Seconds
		if err := c.Spawn(func(p *sim.Proc, r *Rank) {
			if err := r.Allreduce(p, units.Bytes(8*units.MB), 42); err != nil {
				t.Error(err)
			}
			if p.Now() > worst {
				worst = p.Now()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	local := run(auroraComm(t, 8))
	remote := run(auroraClusterComm(t, 2, 8, topology.PlaceSpread))
	if local <= 0 || remote <= 0 {
		t.Fatalf("allreduce times local=%v remote=%v", local, remote)
	}
	if remote <= local {
		t.Errorf("cross-node allreduce %v not slower than single-node %v", remote, local)
	}
}
