package hacc

import (
	"math"
	"testing"
)

func TestBuildOctreeValidation(t *testing.T) {
	if _, err := BuildOctree(&System{G: 1}, 0.5); err == nil {
		t.Error("empty system should fail")
	}
	s, _ := NewRandomSystem(10, 1)
	if _, err := BuildOctree(s, -1); err == nil {
		t.Error("negative theta should fail")
	}
	tree, err := BuildOctree(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.root.count != 10 {
		t.Errorf("tree count = %d, want 10", tree.root.count)
	}
}

// With θ = 0 every cell is opened: the tree reproduces direct summation
// to rounding error.
func TestThetaZeroMatchesDirect(t *testing.T) {
	s, _ := NewRandomSystem(60, 2)
	direct := s.Accelerations()
	tree, err := s.AccelerationsBH(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		for d := 0; d < 3; d++ {
			if math.Abs(direct[i][d]-tree[i][d]) > 1e-10 {
				t.Fatalf("particle %d dim %d: direct %v vs tree %v", i, d, direct[i][d], tree[i][d])
			}
		}
	}
}

// With a practical θ the approximation error is small.
func TestBarnesHutAccuracy(t *testing.T) {
	s, _ := NewRandomSystem(200, 3)
	direct := s.Accelerations()
	tree, err := s.AccelerationsBH(0.4)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range direct {
		var dn, en float64
		for d := 0; d < 3; d++ {
			e := direct[i][d] - tree[i][d]
			en += e * e
			dn += direct[i][d] * direct[i][d]
		}
		if dn > 0 {
			if rel := math.Sqrt(en / dn); rel > worst {
				worst = rel
			}
		}
	}
	if worst > 0.05 {
		t.Errorf("worst relative force error = %.3f, want < 5%% at θ=0.4", worst)
	}
}

// Error grows with θ (coarser multipole acceptance).
func TestErrorGrowsWithTheta(t *testing.T) {
	s, _ := NewRandomSystem(150, 4)
	direct := s.Accelerations()
	errAt := func(theta float64) float64 {
		tree, err := s.AccelerationsBH(theta)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i := range direct {
			for d := 0; d < 3; d++ {
				e := direct[i][d] - tree[i][d]
				sum += e * e
			}
		}
		return math.Sqrt(sum)
	}
	tight, loose := errAt(0.2), errAt(0.9)
	if !(tight < loose) {
		t.Errorf("θ=0.2 error %v should be below θ=0.9 error %v", tight, loose)
	}
}

// Coincident particles must not blow the recursion; the tree still sums
// their mass.
func TestCoincidentParticles(t *testing.T) {
	s := &System{G: 1, Softening: 0.01}
	for i := 0; i < 5; i++ {
		s.Particles = append(s.Particles, Particle{X: 0.5, Y: 0.5, Z: 0.5, Mass: 0.2})
	}
	s.Particles = append(s.Particles, Particle{X: 0.9, Y: 0.5, Z: 0.5, Mass: 1})
	tree, err := BuildOctree(s, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.root.count != 6 {
		t.Errorf("count = %d", tree.root.count)
	}
	// The lone particle feels the full coincident mass, attractive in −x:
	// a_x = G·m·Δx/(r²+ε²)^{3/2} with m = 5 × 0.2, Δx = −0.4.
	a := tree.Accel(s.Particles, 5)
	r2 := 0.4*0.4 + 0.01*0.01
	want := -1.0 * 0.4 / (r2 * math.Sqrt(r2))
	if math.Abs(a[0]-want)/math.Abs(want) > 1e-9 {
		t.Errorf("coincident cluster force = %v, want %v", a[0], want)
	}
}

// The tree's asymptotic advantage: interaction counts scale far below N²
// (measured indirectly via wall time would be flaky; instead verify the
// tree visits far fewer nodes than N per particle for large N).
func TestTreeChepaerThanDirect(t *testing.T) {
	s, _ := NewRandomSystem(500, 6)
	tree, err := BuildOctree(s, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	visits := countVisits(tree, tree.root, s.Particles, 0)
	perParticle := float64(visits) / float64(len(s.Particles))
	if perParticle >= 500 {
		t.Errorf("tree visits %.0f nodes/particle, should be well under N", perParticle)
	}
}

// countVisits replays the acceptance walk for particle 0 only, as a
// proxy, then scales; simpler: count accepted interactions for particle 0.
func countVisits(t *Octree, n *octNode, parts []Particle, i int) int {
	if n == nil || n.mass == 0 {
		return 0
	}
	p := parts[i]
	dx := n.comX - p.X
	dy := n.comY - p.Y
	dz := n.comZ - p.Z
	r2 := dx*dx + dy*dy + dz*dz
	if n.children == nil {
		return 1
	}
	if r2 > 0 && (2*n.half)*(2*n.half) < t.Theta*t.Theta*r2 {
		return 1
	}
	sum := 1
	for _, c := range n.children {
		sum += countVisits(t, c, parts, i)
	}
	return sum
}
