//pvclint:ignore testonly DESIGN §1 real, tested numerical kernels: pointer chase (Ring)
package mem

import (
	"fmt"
	"math/rand"

	"pvcsim/internal/units"
)

// Ring is a pointer-chase working set: a permutation of node indices where
// node i stores the index of the next node to visit, exactly as the lats
// benchmark lays out its arrays. Each node occupies Stride bytes, so a
// ring of n nodes has a footprint of n × Stride bytes.
type Ring struct {
	Next   []int32
	Stride units.Bytes
}

// DefaultStride matches one cache line per node, defeating spatial
// locality the way lats does.
const DefaultStride units.Bytes = 64

// NewRing builds a random single-cycle permutation of n nodes using a
// Sattolo shuffle seeded deterministically, so runs are reproducible.
func NewRing(n int, stride units.Bytes, seed int64) (*Ring, error) {
	if n < 2 {
		return nil, fmt.Errorf("mem: ring needs at least 2 nodes, got %d", n)
	}
	if stride <= 0 {
		stride = DefaultStride
	}
	rng := rand.New(rand.NewSource(seed))
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	// Sattolo's algorithm yields a uniformly random cyclic permutation:
	// a single cycle through all n nodes, which is what guarantees the
	// chase touches the whole footprint each lap.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]int32, n)
	for i := 0; i < n-1; i++ {
		next[perm[i]] = perm[i+1]
	}
	next[perm[n-1]] = perm[0]
	return &Ring{Next: next, Stride: stride}, nil
}

// Footprint returns the ring's memory footprint.
func (r *Ring) Footprint() units.Bytes {
	return units.Bytes(len(r.Next)) * r.Stride
}

// IsSingleCycle verifies the permutation visits every node exactly once
// before returning to the start — the structural invariant of lats.
func (r *Ring) IsSingleCycle() bool {
	n := len(r.Next)
	seen := make([]bool, n)
	cur := int32(0)
	for i := 0; i < n; i++ {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		cur = r.Next[cur]
	}
	return cur == 0
}

// Walk performs hops chase steps starting from node 0 and returns the
// final node; it is the actual computation of lats, usable for host-side
// self-checks and Go benchmarks.
func (r *Ring) Walk(hops int) int32 {
	cur := int32(0)
	for i := 0; i < hops; i++ {
		cur = r.Next[cur]
	}
	return cur
}

// WalkCoalesced runs width simultaneous walkers offset evenly around the
// ring (the paper's "Coalesced Access" variant with a 16-work-item
// sub-group) and returns the XOR of final nodes as a checksum.
func (r *Ring) WalkCoalesced(hops, width int) int32 {
	if width < 1 {
		width = 1
	}
	n := len(r.Next)
	cur := make([]int32, width)
	node := int32(0)
	// Start walkers at distinct points along the cycle.
	step := n / width
	if step == 0 {
		step = 1
	}
	for w := 0; w < width; w++ {
		cur[w] = node
		for s := 0; s < step; s++ {
			node = r.Next[node]
		}
	}
	for i := 0; i < hops; i++ {
		for w := 0; w < width; w++ {
			cur[w] = r.Next[cur[w]]
		}
	}
	sum := int32(0)
	for _, c := range cur {
		sum ^= c
	}
	return sum
}

// Addresses replays the first hops node visits as byte addresses for the
// cache simulator.
func (r *Ring) Addresses(hops int) []int64 {
	out := make([]int64, hops)
	cur := int32(0)
	for i := 0; i < hops; i++ {
		out[i] = int64(cur) * int64(r.Stride)
		cur = r.Next[cur]
	}
	return out
}

// SimulateChase replays laps full laps of the ring through the cache
// simulator (after one warm-up lap) and returns the average latency in
// cycles. This is the execution-driven counterpart of AvgLatencyCycles.
func SimulateChase(r *Ring, cs *CacheSim, laps int) float64 {
	n := len(r.Next)
	cur := int32(0)
	for i := 0; i < n; i++ { // warm-up lap fills the caches
		cs.Access(int64(cur) * int64(r.Stride))
		cur = r.Next[cur]
	}
	start := cs.Accesses()
	startCycles := cs.cycles
	for l := 0; l < laps; l++ {
		for i := 0; i < n; i++ {
			cs.Access(int64(cur) * int64(r.Stride))
			cur = r.Next[cur]
		}
	}
	return (cs.cycles - startCycles) / float64(cs.Accesses()-start)
}
