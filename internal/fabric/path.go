package fabric

import "pvcsim/internal/units"

// Path is a composed multi-hop route through the network: the union of
// the constraint sets its flow must cross simultaneously (a fluid flow
// occupies every pipe of its route at once) plus the accumulated
// per-message latency of the traversal. It is how inter-node transfers
// are built: source NIC, switch-fabric pool, destination NIC. A Path is
// built once per route and reused by every flow along it.
type Path struct {
	Latency     units.Seconds
	Constraints []*Constraint
}

// StartPath begins a non-blocking transfer along a composed route,
// tagged with its binding resource, filling in f as StartBound does;
// callers wait with Flow.Wait. name is as for Transfer.
func (n *Network) StartPath(f *Flow, name func() string, bound string, size units.Bytes, p Path) {
	n.StartBound(f, name, bound, size, p.Latency, p.Constraints...)
}
