package fabric

import "pvcsim/internal/units"

// Path is a composed multi-hop route through the network: the union of
// the constraint sets its flow must cross simultaneously (a fluid flow
// occupies every pipe of its route at once) plus the accumulated
// per-message latency of the traversal. It is how inter-node transfers
// are built: source NIC, switch-fabric pool, destination NIC.
type Path struct {
	Latency     units.Seconds
	Constraints []*Constraint
}

// Via appends constraints to the route.
func (p Path) Via(cs ...*Constraint) Path {
	p.Constraints = append(append([]*Constraint(nil), p.Constraints...), cs...)
	return p
}

// Plus adds traversal latency to the route.
func (p Path) Plus(lat units.Seconds) Path {
	p.Latency += lat
	return p
}

// StartPath begins a non-blocking transfer along a composed route,
// tagged with its binding resource; callers wait with Flow.Wait.
func (n *Network) StartPath(name, bound string, size units.Bytes, p Path) *Flow {
	return n.StartBound(name, bound, size, p.Latency, p.Constraints...)
}
