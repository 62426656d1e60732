package gpusim

import (
	"fmt"
	"strconv"

	"pvcsim/internal/fabric"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Cluster co-simulates several nodes on one discrete-event engine and
// one fabric network: each node is a full Machine (its intra-node links
// namespaced "nodeN/"), plus one NIC link per node and the shared
// switch-fabric pool of the cluster's NetworkSpec. Inter-node transfers
// cross source NIC, global pool and destination NIC as one fluid flow,
// tagged with the fabric.remote-node bound.
type Cluster struct {
	Eng  *sim.Engine
	Net  *fabric.Network
	Spec *topology.ClusterSpec

	nodes  []*Machine
	nics   []*fabric.Link
	global *fabric.Constraint
	routes []fabric.Path // inter-node routes by ordered node pair, built on first use
	sink   obs.Recorder
}

// NewCluster builds a cluster for the spec.
func NewCluster(spec *topology.ClusterSpec) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	net := fabric.NewNetwork(eng)
	c := &Cluster{Eng: eng, Net: net, Spec: spec}
	gpusPerNode := spec.Node.GPUCount
	for i := 0; i < spec.NodeCount; i++ {
		m, err := newOn(eng, net, spec.Node, fmt.Sprintf("node%d/", i), i*gpusPerNode)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, m)
		c.nics = append(c.nics, fabric.NewLink(net, fmt.Sprintf("node%d/nic", i),
			spec.Network.InjectionBW, spec.Network.DuplexFactor, 0))
	}
	c.global = net.MustConstraint("net/global", spec.Network.GlobalBW)
	c.routes = make([]fabric.Path, spec.NodeCount*spec.NodeCount)
	return c, nil
}

// Node returns the i-th node's machine.
func (c *Cluster) Node(i int) *Machine { return c.nodes[i] }

// Observe attaches a recorder to the cluster and every node machine.
// The shared network records into it directly (node machines skip their
// own network wiring when cluster owned). Pass nil to detach.
func (c *Cluster) Observe(r obs.Recorder) {
	c.sink = r
	c.Net.Observe(r)
	for _, m := range c.nodes {
		m.Observe(r)
	}
}

// remotePath returns the inter-node route between two nodes, composed on
// first use: source NIC injection, the shared switch-fabric pool,
// destination NIC ejection, plus the network's end-to-end message
// latency.
func (c *Cluster) remotePath(src, dst int) fabric.Path {
	p := &c.routes[src*len(c.nodes)+dst]
	if p.Constraints == nil {
		in, out := c.nics[src].Dir(false), c.nics[dst].Dir(true)
		cs := make([]*fabric.Constraint, 0, len(in)+1+len(out))
		cs = append(append(append(cs, in...), c.global), out...)
		*p = fabric.Path{Latency: c.Spec.Network.RemoteLatency(), Constraints: cs}
	}
	return *p
}

// StartRemote begins a non-blocking inter-node transfer from a stack on
// node src to a stack on node dst and returns its flow; callers wait
// with Flow.Wait. Same-node pairs must use Stack.StartD2D instead.
func (c *Cluster) StartRemote(src int, from topology.StackID, dst int, to topology.StackID, size units.Bytes) (*fabric.Flow, error) {
	if src < 0 || src >= len(c.nodes) || dst < 0 || dst >= len(c.nodes) {
		return nil, fmt.Errorf("gpusim: inter-node transfer between invalid nodes %d and %d", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("gpusim: nodes %d and %d are the same; use StartD2D", src, dst)
	}
	// NIC-to-NIC hops: every switch traversal plus the two ends.
	obs.Count(c.sink, "fabric.hops", float64(c.Spec.Network.Hops+2))
	name := func() string {
		return "n2n:n" + strconv.Itoa(src) + "/" + from.String() + "->n" + strconv.Itoa(dst) + "/" + to.String()
	}
	return c.Net.StartPath(name, prof.BoundFabricNode, size, c.remotePath(src, dst)), nil
}

// Run drives the simulation to completion.
func (c *Cluster) Run() error { return c.Eng.Run() }
