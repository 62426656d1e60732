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
	queues    map[topology.StackID]*sim.Resource
	sink      obs.Recorder // the recorder handed to Observe

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
	internal *fabric.Link // stack-to-stack, nil when SubCount == 1
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
		queues:    map[topology.StackID]*sim.Resource{},
		prefix:    prefix,
		gpuBase:   gpuBase,
		shared:    prefix != "",
	}
	subs := node.Subdevices()
	for _, st := range subs {
		m.queues[st] = sim.NewResource(eng, prefix+"queue:"+st.String(), 1)
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
		m.cards = append(m.cards, c)
	}
	return m, nil
}

// MustNew is New for the standard nodes, panicking on misconfiguration.
func MustNew(node *topology.NodeSpec) *Machine {
	m, err := New(node)
	if err != nil {
		panic(err)
	}
	return m
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
	if id.GPU < 0 || id.GPU >= m.Node.GPUCount || id.Stack < 0 || id.Stack >= m.Node.GPU.SubCount {
		return nil, fmt.Errorf("gpusim: no stack %v on %s", id, m.Node.Name)
	}
	return &Stack{m: m, ID: id}, nil
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
func (s *Stack) queue() *sim.Resource { return s.m.queues[s.ID] }

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

// Hold blocks the process for a fixed duration on this stack (CPU-side or
// fixed-cost phases).
func (s *Stack) Hold(p *sim.Proc, d units.Seconds) { p.Hold(d) }

// MemcpyH2D transfers size bytes from pinned host memory to the stack.
// Both stacks of a card share its single PCIe link ("Only the first
// Xe-Stack contains the PCIe link"), and all cards share the host pools.
func (s *Stack) MemcpyH2D(p *sim.Proc, size units.Bytes) {
	c := s.m.cards[s.ID.GPU]
	cs := append(c.pcie.Dir(false), s.m.poolH2D, s.m.poolBidir)
	start := p.Now()
	s.m.Net.Transfer(p, fmt.Sprintf("h2d:%v", s.ID), size, c.pcie.Latency, cs...)
	s.m.record("memcpy", "h2d", s.ID, start, p.Now(), size, 0, prof.BoundPCIe)
}

// MemcpyD2H transfers size bytes from the stack to pinned host memory.
func (s *Stack) MemcpyD2H(p *sim.Proc, size units.Bytes) {
	c := s.m.cards[s.ID.GPU]
	cs := append(c.pcie.Dir(true), s.m.poolD2H, s.m.poolBidir)
	start := p.Now()
	s.m.Net.Transfer(p, fmt.Sprintf("d2h:%v", s.ID), size, c.pcie.Latency, cs...)
	s.m.record("memcpy", "d2h", s.ID, start, p.Now(), size, 0, prof.BoundPCIe)
}

// MemcpyD2D transfers size bytes from this stack to dst, routed per the
// node topology: the in-card MDFI path for sibling stacks, one Xe-Link
// (or NVLink/IF) hop for plane-aligned remote stacks, and an extra
// internal hop — with its latency and bandwidth cost — for cross-plane
// pairs (§IV-A4).
func (s *Stack) MemcpyD2D(p *sim.Proc, dst topology.StackID, size units.Bytes) error {
	kind := s.m.Node.Route(s.ID, dst)
	start := p.Now()
	switch kind {
	case topology.SameStack:
		// Local copy at memory bandwidth: two passes (read + write).
		t := units.TimeToMove(2*size, units.ByteRate(float64(s.m.Node.GPU.Sub.MemBWSustained)))
		p.Hold(t)
		s.m.record("memcpy", "d2d", s.ID, start, p.Now(), size, 0, routeBound(kind))
		return nil
	case topology.LocalStack:
		c := s.m.cards[s.ID.GPU]
		if c.internal == nil {
			return fmt.Errorf("gpusim: %s has no internal link", s.m.Node.Name)
		}
		rev := s.ID.Stack > dst.Stack
		s.m.countHops(kind)
		s.m.Net.Transfer(p, fmt.Sprintf("d2d:%v->%v", s.ID, dst), size, c.internal.Latency, c.internal.Dir(rev)...)
		s.m.record("memcpy", "d2d", s.ID, start, p.Now(), size, 0, routeBound(kind))
		return nil
	case topology.RemoteDirect, topology.RemoteExtraHop:
		link := s.m.peerLink(s.ID, dst)
		rev := s.ID.GPU > dst.GPU
		cs := link.Dir(rev)
		latency := link.Latency
		if kind == topology.RemoteExtraHop {
			// The driver routes via a partner stack: add the internal
			// hop's latency and consume its bandwidth too.
			c := s.m.cards[s.ID.GPU]
			if c.internal != nil {
				cs = append(cs, c.internal.Dir(s.ID.Stack > 0)...)
				latency += c.internal.Latency
			}
		}
		s.m.countHops(kind)
		s.m.Net.Transfer(p, fmt.Sprintf("d2d:%v->%v", s.ID, dst), size, latency, cs...)
		s.m.record("memcpy", "d2d", s.ID, start, p.Now(), size, 0, routeBound(kind))
		return nil
	default:
		return fmt.Errorf("gpusim: unroutable path %v -> %v", s.ID, dst)
	}
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
	kind := s.m.Node.Route(s.ID, dst)
	switch kind {
	case topology.SameStack:
		t := units.TimeToMove(2*size, units.ByteRate(float64(s.m.Node.GPU.Sub.MemBWSustained)))
		return s.m.Net.StartBound(fmt.Sprintf("d2d:%v", s.ID), routeBound(kind), 0, t), nil
	case topology.LocalStack:
		c := s.m.cards[s.ID.GPU]
		if c.internal == nil {
			return nil, fmt.Errorf("gpusim: %s has no internal link", s.m.Node.Name)
		}
		rev := s.ID.Stack > dst.Stack
		s.m.countHops(kind)
		return s.m.Net.StartBound(fmt.Sprintf("d2d:%v->%v", s.ID, dst), routeBound(kind), size, c.internal.Latency, c.internal.Dir(rev)...), nil
	case topology.RemoteDirect, topology.RemoteExtraHop:
		link := s.m.peerLink(s.ID, dst)
		rev := s.ID.GPU > dst.GPU
		cs := link.Dir(rev)
		latency := link.Latency
		if kind == topology.RemoteExtraHop {
			c := s.m.cards[s.ID.GPU]
			if c.internal != nil {
				cs = append(cs, c.internal.Dir(s.ID.Stack > 0)...)
				latency += c.internal.Latency
			}
		}
		s.m.countHops(kind)
		return s.m.Net.StartBound(fmt.Sprintf("d2d:%v->%v", s.ID, dst), routeBound(kind), size, latency, cs...), nil
	default:
		return nil, fmt.Errorf("gpusim: unroutable path %v -> %v", s.ID, dst)
	}
}

// Run drives the simulation to completion.
func (m *Machine) Run() error { return m.Eng.Run() }

// Go starts a process on the machine's engine.
func (m *Machine) Go(name string, body func(*sim.Proc)) *sim.Proc {
	return m.Eng.Go(name, body)
}
