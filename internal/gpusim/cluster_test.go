package gpusim

import (
	"strings"
	"testing"

	"pvcsim/internal/fabric"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func auroraCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(topology.NewCluster(topology.Aurora, nodes))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterSetup(t *testing.T) {
	c := auroraCluster(t, 2)
	if len(c.nodes) != 2 {
		t.Fatalf("nodes = %d", len(c.nodes))
	}
	// Node machines share the engine and carry distinct GPU bases: a
	// stack on node 1 must not collide with node 0's in recorded spans.
	for i := 0; i < 2; i++ {
		if c.Node(i).Eng != c.Eng {
			t.Errorf("node %d has its own engine", i)
		}
	}
	bad := &topology.ClusterSpec{Name: "bad", Node: topology.NewAurora(), NodeCount: 0,
		Network: topology.NewSlingshot(1)}
	if _, err := NewCluster(bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestStartRemoteBoundTag checks an inter-node transfer records one flow
// span tagged fabric.remote-node and counts the NIC-to-NIC hops.
func TestStartRemoteBoundTag(t *testing.T) {
	c := auroraCluster(t, 2)
	tr := obs.NewTrace()
	c.Observe(tr)
	s0 := topology.StackID{GPU: 0, Stack: 0}
	var xferErr error
	c.Eng.Go("xfer", func(p *sim.Proc) {
		var f fabric.Flow
		if err := c.StartRemote(&f, 0, s0, 1, s0, 100*units.MB); err != nil {
			xferErr = err
			return
		}
		f.Wait(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if xferErr != nil {
		t.Fatal(xferErr)
	}
	var flows int
	for _, s := range tr.Spans() {
		if s.Cat != "flow" || !strings.HasPrefix(s.Name, "n2n:") {
			continue
		}
		flows++
		if s.Bound != prof.BoundFabricNode {
			t.Errorf("inter-node flow bound = %q, want %q", s.Bound, prof.BoundFabricNode)
		}
		if s.End <= s.Start {
			t.Errorf("flow span has no duration: %+v", s)
		}
	}
	if flows != 1 {
		t.Fatalf("recorded %d inter-node flows, want 1", flows)
	}
	// Hops counter: 3 switch traversals + 2 NIC ends.
	var hops float64
	for _, c := range tr.Counters() {
		if c.Name == "fabric.hops" {
			hops = c.Value
		}
	}
	if hops != 5 {
		t.Errorf("fabric.hops = %v, want 5", hops)
	}
}

// TestStartRemoteBandwidth checks a single uncontended inter-node
// transfer is injection-bandwidth-bound (25 GB/s), not global-pool
// bound.
func TestStartRemoteBandwidth(t *testing.T) {
	c := auroraCluster(t, 4)
	s0 := topology.StackID{GPU: 0, Stack: 0}
	size := 250 * units.MB
	var done units.Seconds
	var xferErr error
	c.Eng.Go("xfer", func(p *sim.Proc) {
		var f fabric.Flow
		if err := c.StartRemote(&f, 0, s0, 2, s0, size); err != nil {
			xferErr = err
			return
		}
		f.Wait(p)
		done = p.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if xferErr != nil {
		t.Fatal(xferErr)
	}
	lat := c.Spec.Network.RemoteLatency()
	bw := float64(size) / float64(done-lat)
	approx(t, "inter-node bandwidth", bw, 25e9, 0.01)
}

// TestStartRemoteErrors covers the argument validation.
func TestStartRemoteErrors(t *testing.T) {
	c := auroraCluster(t, 2)
	s0 := topology.StackID{GPU: 0, Stack: 0}
	var f fabric.Flow
	if err := c.StartRemote(&f, 0, s0, 0, s0, units.MB); err == nil {
		t.Error("same-node transfer accepted")
	}
	if err := c.StartRemote(&f, -1, s0, 1, s0, units.MB); err == nil {
		t.Error("negative source node accepted")
	}
	if err := c.StartRemote(&f, 0, s0, 2, s0, units.MB); err == nil {
		t.Error("out-of-range destination node accepted")
	}
	bad := topology.StackID{GPU: 6, Stack: 0} // Aurora nodes have GPUs 0-5
	if err := c.StartRemote(&f, 0, bad, 1, s0, units.MB); err == nil {
		t.Error("unknown source stack accepted")
	}
	if err := c.StartRemote(&f, 0, s0, 1, topology.StackID{GPU: 0, Stack: 2}, units.MB); err == nil {
		t.Error("unknown destination stack accepted")
	}
}

// TestSingleNodePrefixesUnchanged guards the refactor invariant that a
// standalone machine keeps its historical flow labels — the cluster
// namespacing must never leak into single-node artifacts.
func TestSingleNodePrefixesUnchanged(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	tr := obs.NewTrace()
	m.Observe(tr)
	st, err := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.Go("h2d", func(p *sim.Proc) {
		st.MemcpyH2D(p, 10*units.MB)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range tr.Spans() {
		if strings.Contains(s.Name, "node0/") {
			t.Errorf("single-node span %q carries a cluster prefix", s.Name)
		}
		if s.Name == "h2d:0.0" {
			found = true
		}
	}
	if !found {
		t.Error("expected the h2d:0.0 flow span from the H2D transfer")
	}
}
