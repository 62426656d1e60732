// Package gpusim assembles a runnable simulated node: the discrete-event
// engine, the fabric network for every interconnect (per-card PCIe with
// host-side pools, stack-to-stack MDFI, Xe-Link/NVLink/IF peer links), and
// the performance model for kernel launches. Microbenchmarks and mini-apps
// drive it exactly like a GPU runtime: processes launch kernels on stacks
// and issue memcpys, and virtual time advances accordingly.
package gpusim

import (
	"fmt"

	"pvcsim/internal/fabric"
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/prof"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Machine is one simulated node.
type Machine struct {
	Eng   *sim.Engine
	Net   *fabric.Network
	Node  *topology.NodeSpec
	Model *perfmodel.Model

	cards     []*card
	poolH2D   *fabric.Constraint
	poolD2H   *fabric.Constraint
	poolBidir *fabric.Constraint
	peerLinks map[stackPair]*fabric.Link
	routes    []*route        // device-to-device routes by ordered stack pair, built on first use
	queues    []*sim.Resource // in-order compute queues by stack index
	sink      obs.Recorder    // the recorder handed to Observe

	// prefix namespaces constraint/queue names and gpuBase offsets the
	// recorded GPU index when the machine is one node of a cluster;
	// both are zero for a standalone node, keeping its output
	// byte-identical to the pre-cluster model. shared marks a machine
	// whose engine and network belong to a cluster, which then owns the
	// network's recorder wiring.
	prefix  string
	gpuBase int
	shared  bool
}

// Observe attaches an observability recorder to the machine: model
// emissions from simulation processes record straight into it, the
// performance model keeps a reference for analytic host-side callers,
// and the fabric network records its flows into it (unless the machine
// is a cluster node, whose network the cluster wires). Pass nil to
// detach.
func (m *Machine) Observe(r obs.Recorder) {
	m.sink = r
	m.Model.Observe(r)
	if !m.shared {
		m.Net.Observe(r)
	}
}

// stackPair is an unordered pair of subdevices keyed canonically.
type stackPair struct {
	a, b topology.StackID
}

func pairKey(a, b topology.StackID) stackPair {
	if a.GPU > b.GPU || (a.GPU == b.GPU && a.Stack > b.Stack) {
		a, b = b, a
	}
	return stackPair{a, b}
}

type card struct {
	pcie     *fabric.Link
	internal *fabric.Link         // stack-to-stack, nil when SubCount == 1
	h2d, d2h []*fabric.Constraint // memcpy routes: the PCIe direction plus the host pools
}

// route is the device-to-device path between two stacks: the constraint
// set its flows cross, the latency they pay up front, and the flows'
// label, bound once so a transfer builds no closure.
type route struct {
	cs      []*fabric.Constraint
	latency units.Seconds
	name    func() string
}

// New builds a machine for the node on its own engine and network.
func New(node *topology.NodeSpec) (*Machine, error) {
	eng := sim.NewEngine()
	return newOn(eng, fabric.NewNetwork(eng), node, "", 0)
}

// newOn builds a machine on a caller-supplied engine and network — the
// shared-clock path a Cluster uses to co-simulate several nodes.
func newOn(eng *sim.Engine, net *fabric.Network, node *topology.NodeSpec, prefix string, gpuBase int) (*Machine, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		Eng:       eng,
		Net:       net,
		Node:      node,
		Model:     perfmodel.New(node),
		peerLinks: map[stackPair]*fabric.Link{},
		prefix:    prefix,
		gpuBase:   gpuBase,
		shared:    prefix != "",
	}
	subs := node.Subdevices()
	m.routes = make([]*route, len(subs)*len(subs))
	for _, st := range subs {
		m.queues = append(m.queues, sim.NewResource(eng, prefix+"queue:"+st.String(), 1))
	}
	m.poolH2D = net.MustConstraint(prefix+"host/h2d-pool", node.HostH2DPool)
	m.poolD2H = net.MustConstraint(prefix+"host/d2h-pool", node.HostD2HPool)
	m.poolBidir = net.MustConstraint(prefix+"host/bidir-pool", node.HostBidirPool)
	gpu := node.GPU
	for i := 0; i < node.GPUCount; i++ {
		c := &card{
			pcie: fabric.NewLink(net, fmt.Sprintf("%scard%d/pcie", prefix, i),
				gpu.HostLink.Sustained(), gpu.HostLink.DuplexFactor, gpu.HostLink.Latency),
		}
		if gpu.SubCount > 1 {
			c.internal = fabric.NewLink(net, fmt.Sprintf("%scard%d/internal", prefix, i),
				gpu.InternalLink.Sustained(), gpu.InternalLink.DuplexFactor, gpu.InternalLink.Latency)
		}
		c.h2d = []*fabric.Constraint{c.pcie.Fwd, c.pcie.Duplex, m.poolH2D, m.poolBidir}
		c.d2h = []*fabric.Constraint{c.pcie.Rev, c.pcie.Duplex, m.poolD2H, m.poolBidir}
		m.cards = append(m.cards, c)
	}
	return m, nil
}

// peerLink returns the inter-card path between two subdevices, created
// on first use: constraints are passive until a flow crosses them, so
// building only the links a run drives changes no simulated output.
// Xe-Link (and its NVLink/IF counterparts) provides a distinct port per
// stack pair: six disjoint remote stack pairs on Aurora each sustain
// the full per-pair bandwidth (Table III: 95 ≈ 6 × 15 GB/s).
func (m *Machine) peerLink(a, b topology.StackID) *fabric.Link {
	key := pairKey(a, b)
	link, ok := m.peerLinks[key]
	if !ok {
		spec := m.Node.GPU.PeerLink
		link = fabric.NewLink(m.Net, fmt.Sprintf("%speer%v-%v", m.prefix, key.a, key.b),
			spec.Sustained(), spec.DuplexFactor, spec.Latency)
		m.peerLinks[key] = link
	}
	return link
}

// Stack is a handle to one subdevice of a machine.
type Stack struct {
	m  *Machine
	ID topology.StackID
}

// Stack returns the handle for a subdevice.
func (m *Machine) Stack(id topology.StackID) (*Stack, error) {
	if err := m.checkStack(id); err != nil {
		return nil, err
	}
	return &Stack{m: m, ID: id}, nil
}

// checkStack rejects an id that names no subdevice of the node.
func (m *Machine) checkStack(id topology.StackID) error {
	if id.GPU < 0 || id.GPU >= m.Node.GPUCount || id.Stack < 0 || id.Stack >= m.Node.GPU.SubCount {
		return fmt.Errorf("gpusim: no stack %v on %s", id, m.Node.Name)
	}
	return nil
}

// Stacks returns handles for every subdevice in rank order.
func (m *Machine) Stacks() []*Stack {
	var out []*Stack
	for _, id := range m.Node.Subdevices() {
		out = append(out, &Stack{m: m, ID: id})
	}
	return out
}

// queue returns the stack's in-order compute queue (created at build
// time).
func (s *Stack) queue() *sim.Resource { return s.m.queues[s.m.stackIndex(s.ID)] }

// stackIndex numbers a subdevice in rank order (Node.Subdevices).
func (m *Machine) stackIndex(id topology.StackID) int {
	return id.GPU*m.Node.GPU.SubCount + id.Stack
}

// LaunchKernel blocks the process for the modeled execution time of the
// profile on this stack. Kernels on the same stack serialize through its
// in-order compute queue, as on real hardware: two processes launching on
// one stack take the sum of their kernel times, not the max.
func (s *Stack) LaunchKernel(p *sim.Proc, kp perfmodel.Profile) {
	q := s.queue()
	q.Acquire(p)
	start := p.Now()
	t := s.m.Model.SubdeviceTime(kp)
	bound := ""
	if s.m.sink != nil {
		bound = s.m.Model.Attribution(kp)
	}
	p.Hold(t)
	s.m.record(kp.Name, "kernel", s.ID, start, p.Now(), kp.MemBytes, kp.Flops, bound)
	q.Release()
}

// record emits one device operation as an obs span on the attached
// recorder; bound is the operation's binding-resource tag (prof
// taxonomy).
func (m *Machine) record(name, kind string, st topology.StackID, start, end units.Seconds, bytes units.Bytes, flops float64, bound string) {
	if m.sink != nil {
		m.sink.Span(obs.Span{
			Name: name, Cat: kind, GPU: m.gpuBase + st.GPU, Stack: st.Stack,
			Start: start, End: end, Bytes: bytes, Flops: flops,
			Bound: bound,
		})
	}
}

// MemcpyH2D transfers size bytes from pinned host memory to the stack.
// Both stacks of a card share its single PCIe link ("Only the first
// Xe-Stack contains the PCIe link"), and all cards share the host pools.
func (s *Stack) MemcpyH2D(p *sim.Proc, size units.Bytes) {
	c := s.m.cards[s.ID.GPU]
	id := s.ID
	start := p.Now()
	s.m.Net.Transfer(p, func() string { return "h2d:" + id.String() }, size, c.pcie.Latency, c.h2d...)
	s.m.record("memcpy", "h2d", s.ID, start, p.Now(), size, 0, prof.BoundPCIe)
}

// MemcpyD2H transfers size bytes from the stack to pinned host memory.
func (s *Stack) MemcpyD2H(p *sim.Proc, size units.Bytes) {
	c := s.m.cards[s.ID.GPU]
	id := s.ID
	start := p.Now()
	s.m.Net.Transfer(p, func() string { return "d2h:" + id.String() }, size, c.pcie.Latency, c.d2h...)
	s.m.record("memcpy", "d2h", s.ID, start, p.Now(), size, 0, prof.BoundPCIe)
}

// routeBound maps a routed transfer path onto its binding resource:
// same-stack copies run at HBM bandwidth, sibling stacks cross the
// in-card MDFI link, plane-aligned peers take one Xe-Link hop, and
// cross-plane pairs pay the extra internal hop.
func routeBound(kind topology.PathKind) string {
	switch kind {
	case topology.SameStack:
		return prof.BoundHBM
	case topology.LocalStack:
		return prof.BoundFabricLocal
	case topology.RemoteExtraHop:
		return prof.BoundFabricXPlane
	default:
		return prof.BoundFabricRemote
	}
}

// countHops accumulates the fabric.hops counter for a routed transfer:
// one hop for the in-card MDFI path or a direct peer link, two when the
// driver adds the internal detour for cross-plane pairs.
func (m *Machine) countHops(kind topology.PathKind) {
	hops := 1.0
	if kind == topology.RemoteExtraHop {
		hops = 2
	}
	obs.Count(m.sink, "fabric.hops", hops)
}

// StartD2D begins a non-blocking device-to-device transfer and returns its
// flow; the caller waits with Flow.Wait. It underlies MPI_Isend/Irecv of
// device buffers in the mpirt package.
func (s *Stack) StartD2D(dst topology.StackID, size units.Bytes) (*fabric.Flow, error) {
	if err := s.m.checkStack(dst); err != nil {
		return nil, err
	}
	kind := s.m.Node.Route(s.ID, dst)
	r, err := s.m.route(s.ID, dst, kind)
	if err != nil {
		return nil, err
	}
	if kind == topology.SameStack {
		t := units.TimeToMove(2*size, units.ByteRate(float64(s.m.Node.GPU.Sub.MemBWSustained)))
		return s.m.Net.StartBound(r.name, routeBound(kind), 0, t), nil
	}
	s.m.countHops(kind)
	return s.m.Net.StartBound(r.name, routeBound(kind), size, r.latency, r.cs...), nil
}

// route returns the path from stack a to stack b, built on first use and
// kept for every later transfer between them. A same-stack copy crosses
// no link; sibling stacks cross the card's internal link; remote stacks
// cross their peer link, plus the source card's internal link when the
// driver adds the cross-plane hop.
func (m *Machine) route(a, b topology.StackID, kind topology.PathKind) (*route, error) {
	i := m.stackIndex(a)*len(m.queues) + m.stackIndex(b)
	if r := m.routes[i]; r != nil {
		return r, nil
	}
	c := m.cards[a.GPU]
	var r *route
	switch kind {
	case topology.SameStack:
		r = &route{name: func() string { return "d2d:" + a.String() }}
	case topology.LocalStack:
		if c.internal == nil {
			return nil, fmt.Errorf("gpusim: %s has no internal link", m.Node.Name)
		}
		r = &route{cs: c.internal.Dir(a.Stack > b.Stack), latency: c.internal.Latency}
	case topology.RemoteDirect, topology.RemoteExtraHop:
		link := m.peerLink(a, b)
		r = &route{cs: link.Dir(a.GPU > b.GPU), latency: link.Latency}
		if kind == topology.RemoteExtraHop && c.internal != nil {
			hop := c.internal.Dir(a.Stack > 0)
			r.cs = append(append(make([]*fabric.Constraint, 0, len(r.cs)+len(hop)), r.cs...), hop...)
			r.latency += c.internal.Latency
		}
	default:
		return nil, fmt.Errorf("gpusim: unroutable path %v -> %v", a, b)
	}
	if r.name == nil {
		r.name = func() string { return "d2d:" + a.String() + "->" + b.String() }
	}
	m.routes[i] = r
	return r, nil
}

// Run drives the simulation to completion.
func (m *Machine) Run() error { return m.Eng.Run() }

// Go starts a process on the machine's engine.
func (m *Machine) Go(name string, body func(*sim.Proc)) *sim.Proc {
	return m.Eng.Go(name, body)
}
