// Package mpirt is an MPI-like runtime over the simulated node, modeling
// the Level-Zero-aware MPICH the paper uses for its device-to-device
// microbenchmark: one rank per stack ("explicit scaling"), non-blocking
// Isend/Irecv of device buffers routed over the modeled fabric, Wait,
// Sendrecv, Barrier, and Allreduce.
package mpirt

import (
	"fmt"

	"pvcsim/internal/fabric"
	"pvcsim/internal/gpusim"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// Comm is a communicator spanning nranks simulated processes, rank r bound
// to subdevice r in GPU-major order (the paper's rank binding). A
// communicator spans either one machine (NewComm) or a whole cluster
// (NewClusterComm); in the latter case inter-node sends are routed over
// the cluster network instead of the node-local fabric.
type Comm struct {
	m       *gpusim.Machine // nil for cluster communicators
	cl      *gpusim.Cluster // nil for single-node communicators
	eng     *sim.Engine
	run     func() error
	ranks   []*Rank
	barrier *sim.Barrier // built by the first Barrier call
}

// message is an in-flight eager-protocol message.
type message struct {
	src, dst int
	tag      int
	size     units.Bytes
	flow     *fabric.Flow
}

// Rank is one MPI process.
type Rank struct {
	comm    *Comm
	rank    int
	Node    int // node index within the cluster (0 on a single node)
	Stack   *gpusim.Stack
	Binding topology.RankBinding
	inbox   []*message // unclaimed messages in arrival order
	newMsg  *sim.Signal
}

// NewComm creates a communicator of nranks ranks on the machine.
func NewComm(m *gpusim.Machine, nranks int) (*Comm, error) {
	bindings, err := m.Node.BindRanks(nranks)
	if err != nil {
		return nil, err
	}
	c := &Comm{m: m, eng: m.Eng, run: m.Run}
	for r := 0; r < nranks; r++ {
		st, err := m.Stack(bindings[r].Stack)
		if err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, &Rank{
			comm:    c,
			rank:    r,
			Stack:   st,
			Binding: bindings[r],
			newMsg:  sim.NewNamedSignal(fmt.Sprintf("rank%d inbox", r)),
		})
	}
	return c, nil
}

// NewClusterComm creates a communicator of nranks ranks across a
// cluster, placed under the given policy. Within each node the paper's
// rank binding applies unchanged; sends between ranks on different
// nodes cross the cluster network.
func NewClusterComm(cl *gpusim.Cluster, nranks int, place topology.Placement) (*Comm, error) {
	bindings, err := cl.Spec.BindRanks(nranks, place)
	if err != nil {
		return nil, err
	}
	c := &Comm{cl: cl, eng: cl.Eng, run: cl.Run}
	for r := 0; r < nranks; r++ {
		st, err := cl.Node(bindings[r].Node).Stack(bindings[r].Local.Stack)
		if err != nil {
			return nil, err
		}
		c.ranks = append(c.ranks, &Rank{
			comm:    c,
			rank:    r,
			Node:    bindings[r].Node,
			Stack:   st,
			Binding: bindings[r].Local,
			newMsg:  sim.NewNamedSignal(fmt.Sprintf("rank%d inbox", r)),
		})
	}
	return c, nil
}

// startTransfer routes one eager send over the right fabric: the
// node-local D2D path when both ranks share a node, the cluster network
// otherwise.
func (c *Comm) startTransfer(src, dst *Rank, size units.Bytes) (*fabric.Flow, error) {
	if c.cl != nil && src.Node != dst.Node {
		return c.cl.StartRemote(src.Node, src.Stack.ID, dst.Node, dst.Stack.ID, size)
	}
	return src.Stack.StartD2D(dst.Stack.ID, size)
}

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// Spawn starts one simulation process per rank running body, then runs
// the simulation to completion.
func (c *Comm) Spawn(body func(p *sim.Proc, r *Rank)) error {
	for _, r := range c.ranks {
		rr := r
		c.eng.Go(fmt.Sprintf("rank%d", rr.rank), func(p *sim.Proc) {
			body(p, rr)
		})
	}
	return c.run()
}

// Rank index of this process.
func (r *Rank) Rank() int { return r.rank }

// Size of the communicator.
func (r *Rank) Size() int { return len(r.comm.ranks) }

// Request is a handle for a non-blocking operation.
type Request struct {
	kind    byte // 's' or 'r'
	rank    *Rank
	sent    message // send side: the message the peer's inbox points at
	src     int     // recv side matching
	tag     int
	matched *message
}

// Isend starts a non-blocking send of size device bytes to rank dst with
// the given tag, modeling MPICH's eager GPU path: the wire transfer starts
// immediately and the matching receive completes when it drains.
func (r *Rank) Isend(dst, tag int, size units.Bytes) (*Request, error) {
	if dst < 0 || dst >= len(r.comm.ranks) {
		return nil, fmt.Errorf("mpirt: Isend to invalid rank %d", dst)
	}
	peer := r.comm.ranks[dst]
	flow, err := r.comm.startTransfer(r, peer, size)
	if err != nil {
		return nil, err
	}
	req := &Request{kind: 's', rank: r, tag: tag, sent: message{src: r.rank, dst: dst, tag: tag, size: size, flow: flow}}
	peer.inbox = append(peer.inbox, &req.sent)
	peer.newMsg.Fire()
	return req, nil
}

// Irecv posts a non-blocking receive matching (src, tag). src may be
// AnySource.
func (r *Rank) Irecv(src, tag int) (*Request, error) {
	if src != AnySource && (src < 0 || src >= len(r.comm.ranks)) {
		return nil, fmt.Errorf("mpirt: Irecv from invalid rank %d", src)
	}
	return &Request{kind: 'r', rank: r, src: src, tag: tag}, nil
}

// AnySource matches a message from any sender.
const AnySource = -1

// AnyTag matches any tag.
const AnyTag = -1

// findMatch claims the earliest-arrived inbox message matching the
// request, removing it from the inbox so the rest keep their order.
func (req *Request) findMatch() *message {
	inbox := req.rank.inbox
	for i, m := range inbox {
		if req.src != AnySource && m.src != req.src {
			continue
		}
		if req.tag != AnyTag && m.tag != req.tag {
			continue
		}
		copy(inbox[i:], inbox[i+1:])
		inbox[len(inbox)-1] = nil
		req.rank.inbox = inbox[:len(inbox)-1]
		return m
	}
	return nil
}

// Wait blocks the process until the operation completes. For receives,
// this is when a matching message exists and its wire transfer has
// drained.
func (req *Request) Wait(p *sim.Proc) {
	if req.kind == 's' {
		req.sent.flow.Wait(p)
		return
	}
	for req.matched == nil {
		if m := req.findMatch(); m != nil {
			req.matched = m
			break
		}
		req.rank.newMsg.Wait(p)
	}
	req.matched.flow.Wait(p)
}

// WaitAll waits on every request in order.
func WaitAll(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		r.Wait(p)
	}
}

// Send is a blocking send.
func (r *Rank) Send(p *sim.Proc, dst, tag int, size units.Bytes) error {
	req, err := r.Isend(dst, tag, size)
	if err != nil {
		return err
	}
	req.Wait(p)
	return nil
}

// Recv is a blocking receive.
func (r *Rank) Recv(p *sim.Proc, src, tag int) error {
	req, err := r.Irecv(src, tag)
	if err != nil {
		return err
	}
	req.Wait(p)
	return nil
}

// Sendrecv overlaps a send to dst with a receive from src, the pattern of
// the bidirectional bandwidth microbenchmark.
func (r *Rank) Sendrecv(p *sim.Proc, dst, src, tag int, size units.Bytes) error {
	sreq, err := r.Isend(dst, tag, size)
	if err != nil {
		return err
	}
	rreq, err := r.Irecv(src, tag)
	if err != nil {
		return err
	}
	WaitAll(p, sreq, rreq)
	return nil
}

// Allreduce models a recursive-doubling allreduce of size bytes per rank:
// log2(n) rounds of pairwise exchanges, each a real simulated Sendrecv, so
// its cost emerges from the fabric topology. Non-power-of-two sizes use
// the standard fold-in/fold-out extension.
func (r *Rank) Allreduce(p *sim.Proc, size units.Bytes, tag int) error {
	n := len(r.comm.ranks)
	if n == 1 {
		return nil
	}
	// Largest power of two ≤ n.
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	me := r.rank
	// Fold-in: ranks ≥ pof2 send to (rank − pof2) and sit out.
	if me >= pof2 {
		if err := r.Send(p, me-pof2, tag, size); err != nil {
			return err
		}
		// Wait for the final result broadcast back.
		return r.Recv(p, me-pof2, tag+1)
	}
	if me < rem {
		if err := r.Recv(p, me+pof2, tag); err != nil {
			return err
		}
	}
	// Recursive doubling among the first pof2 ranks.
	for mask := 1; mask < pof2; mask <<= 1 {
		partner := me ^ mask
		if err := r.Sendrecv(p, partner, partner, tag+2+mask, size); err != nil {
			return err
		}
	}
	// Fold-out.
	if me < rem {
		if err := r.Send(p, me+pof2, tag+1, size); err != nil {
			return err
		}
	}
	return nil
}
