//pvclint:ignore testonly DESIGN §3 X6 collectives: Bcast/Reduce/Gather/Allgather/ReduceScatter/Alltoall, and the Barrier of DESIGN §2's mpirt row
package mpirt

import (
	"fmt"

	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// This file implements the standard collective algorithms on top of the
// point-to-point layer, so their cost on each node emerges from the
// simulated fabric (local MDFI vs remote Xe-Link paths, duplex limits).
// Tags are namespaced per collective invocation via the caller-supplied
// base tag; algorithms follow the classic MPICH choices.

// Barrier synchronizes all ranks of the communicator: each blocks until
// every rank has arrived, and all leave at the same virtual time.
func (r *Rank) Barrier(p *sim.Proc) {
	c := r.comm
	if c.barrier == nil {
		c.barrier = sim.NewBarrier(len(c.ranks))
	}
	c.barrier.Arrive(p)
}

// Bcast distributes size bytes from root to every rank over a binomial
// tree: log2(n) rounds, each rank forwarding to the peer with the next
// higher set bit.
func (r *Rank) Bcast(p *sim.Proc, root, tag int, size units.Bytes) error {
	n := len(r.comm.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("mpirt: Bcast from invalid root %d", root)
	}
	if n == 1 {
		return nil
	}
	// Rotate so the root is rank 0 in the virtual numbering.
	vrank := (r.rank - root + n) % n
	// Receive from the parent (highest set bit), unless root.
	if vrank != 0 {
		mask := 1
		for mask <= vrank {
			mask <<= 1
		}
		mask >>= 1
		parent := ((vrank - mask) + root) % n
		if err := r.Recv(p, parent, tag); err != nil {
			return err
		}
	}
	// Forward to children.
	for mask := nextPow2(vrank + 1); vrank+mask < n; mask <<= 1 {
		child := (vrank + mask + root) % n
		if err := r.Send(p, child, tag, size); err != nil {
			return err
		}
	}
	return nil
}

// nextPow2 returns the smallest power of two >= v (v >= 1).
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Reduce gathers a reduction of size bytes to root over the mirrored
// binomial tree: children send partial results up.
func (r *Rank) Reduce(p *sim.Proc, root, tag int, size units.Bytes) error {
	n := len(r.comm.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("mpirt: Reduce to invalid root %d", root)
	}
	if n == 1 {
		return nil
	}
	vrank := (r.rank - root + n) % n
	// Receive partials from children (low bits first), then send to
	// parent.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			return r.Send(p, parent, tag, size)
		}
		peer := vrank | mask
		if peer < n {
			if err := r.Recv(p, (peer+root)%n, tag); err != nil {
				return err
			}
		}
	}
	return nil // root
}

// Gather collects size bytes from every rank to root (direct sends; root
// posts all receives).
func (r *Rank) Gather(p *sim.Proc, root, tag int, size units.Bytes) error {
	n := len(r.comm.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("mpirt: Gather to invalid root %d", root)
	}
	if r.rank != root {
		return r.Send(p, root, tag, size)
	}
	reqs := make([]*Request, 0, n-1)
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		req, err := r.Irecv(src, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	WaitAll(p, reqs...)
	return nil
}

// Allgather exchanges size bytes per rank with the ring algorithm: n−1
// steps, each rank forwarding the block it just received to its right
// neighbour while receiving from the left. Bandwidth-optimal for large
// blocks.
func (r *Rank) Allgather(p *sim.Proc, tag int, size units.Bytes) error {
	n := len(r.comm.ranks)
	if n == 1 {
		return nil
	}
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	for step := 0; step < n-1; step++ {
		sreq, err := r.Isend(right, tag+step, size)
		if err != nil {
			return err
		}
		rreq, err := r.Irecv(left, tag+step)
		if err != nil {
			return err
		}
		WaitAll(p, sreq, rreq)
	}
	return nil
}

// ReduceScatter reduces and scatters size-per-block bytes with the
// pairwise-exchange algorithm: n−1 steps of Sendrecv with shrinking
// logical distance.
func (r *Rank) ReduceScatter(p *sim.Proc, tag int, blockSize units.Bytes) error {
	n := len(r.comm.ranks)
	if n == 1 {
		return nil
	}
	for step := 1; step < n; step++ {
		dst := (r.rank + step) % n
		src := (r.rank - step + n) % n
		sreq, err := r.Isend(dst, tag+step, blockSize)
		if err != nil {
			return err
		}
		rreq, err := r.Irecv(src, tag+step)
		if err != nil {
			return err
		}
		WaitAll(p, sreq, rreq)
	}
	return nil
}

// AllreduceRing is the bandwidth-optimal ring allreduce (reduce-scatter
// followed by allgather over n−1 steps each), the algorithm large deep-
// learning messages use; contrast with the latency-optimal recursive
// doubling in Allreduce.
func (r *Rank) AllreduceRing(p *sim.Proc, tag int, size units.Bytes) error {
	n := len(r.comm.ranks)
	if n == 1 {
		return nil
	}
	block := units.Bytes(float64(size) / float64(n))
	if block < 1 {
		block = 1
	}
	right := (r.rank + 1) % n
	left := (r.rank - 1 + n) % n
	for phase := 0; phase < 2; phase++ { // reduce-scatter, then allgather
		for step := 0; step < n-1; step++ {
			t := tag + phase*(n+1) + step
			sreq, err := r.Isend(right, t, block)
			if err != nil {
				return err
			}
			rreq, err := r.Irecv(left, t)
			if err != nil {
				return err
			}
			WaitAll(p, sreq, rreq)
		}
	}
	return nil
}

// Alltoall exchanges size bytes between every rank pair with the
// scattered-destination schedule that avoids hot spots.
func (r *Rank) Alltoall(p *sim.Proc, tag int, size units.Bytes) error {
	n := len(r.comm.ranks)
	if n == 1 {
		return nil
	}
	var reqs []*Request
	for step := 1; step < n; step++ {
		dst := (r.rank + step) % n
		src := (r.rank - step + n) % n
		sreq, err := r.Isend(dst, tag, size)
		if err != nil {
			return err
		}
		rreq, err := r.Irecv(src, tag)
		if err != nil {
			return err
		}
		reqs = append(reqs, sreq, rreq)
	}
	WaitAll(p, reqs...)
	return nil
}
