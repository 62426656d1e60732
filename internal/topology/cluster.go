package topology

import (
	"fmt"
	"strings"

	"pvcsim/internal/units"
)

// Cluster model: N identical nodes joined by a parameterized inter-node
// network. The network follows the shape of HPE Slingshot as deployed on
// Aurora and Dawn — per-node NIC injection bandwidth, a shared switch
// fabric modeled as one global bandwidth pool, and a per-message latency
// built from link and switch traversals — but every knob is a parameter,
// so user JSON can describe other interconnects.

// NetworkSpec parameterizes the inter-node network.
type NetworkSpec struct {
	Name string
	// InjectionBW is the per-node NIC bandwidth in each direction.
	InjectionBW units.ByteRate
	// DuplexFactor caps simultaneous bidirectional NIC traffic at
	// DuplexFactor × InjectionBW (2 = full duplex).
	DuplexFactor float64
	// GlobalBW is the shared switch-fabric pool every inter-node flow
	// crosses; it is what makes all-to-all phases contend.
	GlobalBW units.ByteRate
	// LinkLatency is the wire latency of one link traversal and
	// SwitchLatency the port-to-port latency of one switch; a message
	// crosses Hops switches and Hops+1 links.
	LinkLatency   units.Seconds
	SwitchLatency units.Seconds
	Hops          int
}

// Validate checks the network parameters.
func (n *NetworkSpec) Validate() error {
	if n.InjectionBW <= 0 {
		return fmt.Errorf("topology: network %q needs positive injection bandwidth", n.Name)
	}
	if n.GlobalBW <= 0 {
		return fmt.Errorf("topology: network %q needs positive global bandwidth", n.Name)
	}
	if n.Hops < 0 {
		return fmt.Errorf("topology: network %q has negative hop count", n.Name)
	}
	if n.LinkLatency < 0 || n.SwitchLatency < 0 {
		return fmt.Errorf("topology: network %q has negative latency", n.Name)
	}
	return nil
}

// RemoteLatency is the end-to-end latency of one inter-node message:
// Hops switch traversals plus Hops+1 link traversals. Each product is
// converted on its own, so no architecture fuses the sum into a
// multiply-add with a single rounding.
func (n *NetworkSpec) RemoteLatency() units.Seconds {
	return units.Seconds(n.LinkLatency*units.Seconds(n.Hops+1)) + units.Seconds(n.SwitchLatency*units.Seconds(n.Hops))
}

// NewSlingshot builds the default Slingshot-11-like network for a
// cluster of the given size: 25 GB/s injection per NIC direction, a
// dragonfly diameter of three switch hops, and a global pool sized at
// half the aggregate injection bandwidth (the bisection rule of thumb).
func NewSlingshot(nodes int) NetworkSpec {
	global := units.ByteRate(nodes) * 25 * units.GBps / 2
	if nodes <= 1 {
		global = 25 * units.GBps
	}
	return NetworkSpec{
		Name:          "Slingshot",
		InjectionBW:   25 * units.GBps,
		DuplexFactor:  2,
		GlobalBW:      global,
		LinkLatency:   300 * units.Nanosecond,
		SwitchLatency: 350 * units.Nanosecond,
		Hops:          3,
	}
}

// ClusterSpec is NodeCount identical nodes on one inter-node network.
type ClusterSpec struct {
	Name      string
	Node      *NodeSpec
	NodeCount int
	Network   NetworkSpec
}

// NewCluster builds the standard cluster for a system: NodeCount stock
// nodes on the default Slingshot-like network.
func NewCluster(s System, nodes int) *ClusterSpec {
	node := NewNode(s)
	return &ClusterSpec{
		Name:      fmt.Sprintf("%s x%d", node.Name, nodes),
		Node:      node,
		NodeCount: nodes,
		Network:   NewSlingshot(nodes),
	}
}

// Validate checks structural consistency.
func (c *ClusterSpec) Validate() error {
	if c.Node == nil {
		return fmt.Errorf("topology: cluster %q has no node spec", c.Name)
	}
	if c.NodeCount < 1 {
		return fmt.Errorf("topology: cluster %q has %d nodes", c.Name, c.NodeCount)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Network.Validate()
}

// TotalStacks returns the cluster-wide subdevice count.
func (c *ClusterSpec) TotalStacks() int { return c.NodeCount * c.Node.TotalStacks() }

// Placement is a rank-placement policy across the cluster's nodes.
type Placement int

const (
	// PlacePacked fills each node completely before the next (block
	// placement): neighbouring ranks land on the same node.
	PlacePacked Placement = iota
	// PlaceSpread deals ranks round-robin across nodes (cyclic
	// placement): neighbouring ranks land on different nodes.
	PlaceSpread
)

// String names the placement policy.
func (p Placement) String() string {
	switch p {
	case PlacePacked:
		return "packed"
	case PlaceSpread:
		return "spread"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement resolves a policy name.
func ParsePlacement(name string) (Placement, error) {
	switch strings.ToLower(name) {
	case "packed", "block":
		return PlacePacked, nil
	case "spread", "cyclic":
		return PlaceSpread, nil
	default:
		return 0, fmt.Errorf("topology: unknown placement %q (want packed or spread)", name)
	}
}

// ClusterRankBinding places one rank on a node plus its within-node
// binding (stack, socket, core).
type ClusterRankBinding struct {
	Rank  int
	Node  int
	Local RankBinding
}

// BindRanks places nranks ranks across the cluster under the given
// policy. Each node binds its local ranks exactly as the single-node
// BindRanks does, so a one-node cluster reproduces the paper's binding.
func (c *ClusterSpec) BindRanks(nranks int, p Placement) ([]ClusterRankBinding, error) {
	perNode := c.Node.TotalStacks()
	total := c.NodeCount * perNode
	if nranks < 1 || nranks > total {
		return nil, fmt.Errorf("topology: cluster %q supports 1..%d ranks, got %d", c.Name, total, nranks)
	}
	// Assign each rank a node, then a within-node slot in arrival order.
	node := make([]int, nranks)
	localIdx := make([]int, nranks)
	fill := make([]int, c.NodeCount)
	for r := 0; r < nranks; r++ {
		var n int
		switch p {
		case PlaceSpread:
			n = r % c.NodeCount
			for fill[n] >= perNode { // wrap past full nodes
				n = (n + 1) % c.NodeCount
			}
		default:
			n = r / perNode
		}
		node[r] = n
		localIdx[r] = fill[n]
		fill[n]++
	}
	// Bind each node's local ranks with the single-node rules.
	locals := make([][]RankBinding, c.NodeCount)
	for n := 0; n < c.NodeCount; n++ {
		if fill[n] == 0 {
			continue
		}
		b, err := c.Node.BindRanks(fill[n])
		if err != nil {
			return nil, err
		}
		locals[n] = b
	}
	out := make([]ClusterRankBinding, nranks)
	for r := 0; r < nranks; r++ {
		out[r] = ClusterRankBinding{Rank: r, Node: node[r], Local: locals[node[r]][localIdx[r]]}
	}
	return out, nil
}
