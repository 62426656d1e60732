//pvclint:ignore testonly DESIGN §3 X5 Barnes-Hut gravity: hacc.BuildOctree
package hacc

import (
	"fmt"
	"math"
)

// Octree is a Barnes-Hut tree for O(N log N) gravity — the tree/particle-
// mesh long-range solver class HACC uses on the host side, here with the
// standard multipole-acceptance criterion (cell size / distance < θ).
type Octree struct {
	root  *octNode
	Theta float64
	eps2  float64
	g     float64
}

type octNode struct {
	cx, cy, cz float64 // cell center
	half       float64 // half edge length
	mass       float64
	comX       float64
	comY       float64
	comZ       float64
	count      int
	children   *[8]*octNode // nil for leaves
	pIdx       int          // particle index for single-particle leaves
}

// maxOctreeDepth bounds subdivision for coincident particles.
const maxOctreeDepth = 48

// BuildOctree constructs the tree over the particles with opening angle
// theta (0 reduces to direct summation behaviour; 0.3–0.7 is typical).
func BuildOctree(s *System, theta float64) (*Octree, error) {
	if len(s.Particles) == 0 {
		return nil, fmt.Errorf("hacc: empty particle set")
	}
	if theta < 0 {
		return nil, fmt.Errorf("hacc: negative opening angle")
	}
	// Bounding cube.
	min := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	max := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range s.Particles {
		for d, v := range [3]float64{p.X, p.Y, p.Z} {
			if v < min[d] {
				min[d] = v
			}
			if v > max[d] {
				max[d] = v
			}
		}
	}
	half := 0.0
	for d := 0; d < 3; d++ {
		if h := (max[d] - min[d]) / 2; h > half {
			half = h
		}
	}
	half = half*1.0001 + 1e-12 // avoid particles exactly on faces
	t := &Octree{
		Theta: theta,
		eps2:  s.Softening * s.Softening,
		g:     s.G,
		root: &octNode{
			cx: (min[0] + max[0]) / 2, cy: (min[1] + max[1]) / 2, cz: (min[2] + max[2]) / 2,
			half: half, pIdx: -1,
		},
	}
	for i := range s.Particles {
		t.insert(t.root, s.Particles, i, 0)
	}
	t.summarize(t.root, s.Particles)
	return t, nil
}

// insert places particle i into the subtree at n.
func (t *Octree) insert(n *octNode, parts []Particle, i, depth int) {
	if n.children == nil {
		if n.count == 0 { // empty leaf
			n.pIdx = i
			n.count = 1
			return
		}
		if depth >= maxOctreeDepth {
			// Effectively coincident particles: keep a multi-particle
			// leaf; the mass summary scales by the count.
			n.count++
			return
		}
		// Occupied single-particle leaf: split, pushing the resident
		// particle down before inserting the newcomer.
		old := n.pIdx
		n.children = new([8]*octNode)
		n.pIdx = -1
		n.count = 0
		t.insertChild(n, parts, old, depth)
		n.count++
	}
	t.insertChild(n, parts, i, depth)
	n.count++
}

// insertChild routes particle i into the correct octant child.
func (t *Octree) insertChild(n *octNode, parts []Particle, i, depth int) {
	p := parts[i]
	oct := 0
	if p.X >= n.cx {
		oct |= 1
	}
	if p.Y >= n.cy {
		oct |= 2
	}
	if p.Z >= n.cz {
		oct |= 4
	}
	c := n.children[oct]
	if c == nil {
		h := n.half / 2
		c = &octNode{
			cx: n.cx + h*sign(oct&1 != 0), cy: n.cy + h*sign(oct&2 != 0), cz: n.cz + h*sign(oct&4 != 0),
			half: h, pIdx: -1,
		}
		n.children[oct] = c
	}
	t.insert(c, parts, i, depth+1)
}

func sign(b bool) float64 {
	if b {
		return 1
	}
	return -1
}

// summarize computes mass and center of mass bottom-up.
func (t *Octree) summarize(n *octNode, parts []Particle) {
	if n == nil {
		return
	}
	if n.children == nil {
		if n.pIdx >= 0 {
			p := parts[n.pIdx]
			m := p.Mass * float64(n.count) // coincident leaves share one index
			n.mass = m
			n.comX, n.comY, n.comZ = p.X, p.Y, p.Z
		}
		return
	}
	var m, x, y, z float64
	for _, c := range n.children {
		if c == nil {
			continue
		}
		t.summarize(c, parts)
		m += c.mass
		x += c.mass * c.comX
		y += c.mass * c.comY
		z += c.mass * c.comZ
	}
	n.mass = m
	if m > 0 {
		n.comX, n.comY, n.comZ = x/m, y/m, z/m
	}
}

// Accel returns the Barnes-Hut acceleration on particle i.
func (t *Octree) Accel(parts []Particle, i int) [3]float64 {
	var a [3]float64
	t.accel(t.root, parts, i, &a)
	return a
}

func (t *Octree) accel(n *octNode, parts []Particle, i int, a *[3]float64) {
	if n == nil || n.mass == 0 {
		return
	}
	p := parts[i]
	dx := n.comX - p.X
	dy := n.comY - p.Y
	dz := n.comZ - p.Z
	r2 := dx*dx + dy*dy + dz*dz
	if n.children == nil {
		if n.pIdx == i && n.count == 1 {
			return // self
		}
		m := n.mass
		if n.pIdx == i {
			m -= p.Mass // exclude self from a coincident leaf
		}
		r2 += t.eps2
		inv := t.g * m / (r2 * math.Sqrt(r2))
		a[0] += inv * dx
		a[1] += inv * dy
		a[2] += inv * dz
		return
	}
	// Multipole acceptance: cell edge / distance < θ.
	if r2 > 0 && (2*n.half)*(2*n.half) < t.Theta*t.Theta*r2 {
		r2 += t.eps2
		inv := t.g * n.mass / (r2 * math.Sqrt(r2))
		a[0] += inv * dx
		a[1] += inv * dy
		a[2] += inv * dz
		return
	}
	for _, c := range n.children {
		t.accel(c, parts, i, a)
	}
}

// AccelerationsBH computes all accelerations through a fresh Barnes-Hut
// tree.
func (s *System) AccelerationsBH(theta float64) ([][3]float64, error) {
	t, err := BuildOctree(s, theta)
	if err != nil {
		return nil, err
	}
	out := make([][3]float64, len(s.Particles))
	for i := range s.Particles {
		out[i] = t.Accel(s.Particles, i)
	}
	return out, nil
}
