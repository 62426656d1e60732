package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat64(n int, seed int64) []float64 { return randSlice(n, seed) }

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestGEMMFlops(t *testing.T) {
	if GEMMFlops(2, 3, 4) != 48 {
		t.Errorf("GEMMFlops = %v", GEMMFlops(2, 3, 4))
	}
	// The paper's N=20480 square GEMM: 2N³ ≈ 1.718e13.
	if math.Abs(GEMMFlops(20480, 20480, 20480)-1.7180e13)/1.718e13 > 0.001 {
		t.Error("paper-size GEMM flop count wrong")
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 17
	a := make([]float64, n*n)
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	copy(a, randMat64(n*n, 5))
	c := make([]float64, n*n)
	if err := MatMulParallel(n, n, n, a, id, c, 0); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a, c) > 1e-14 {
		t.Error("A·I != A")
	}
}

func TestMatMulMatchesNaiveRectangular(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 63, 130}, {100, 1, 50}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randMat64(m*k, int64(m))
		b := randMat64(k*n, int64(n))
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		if err := MatMulNaive(m, n, k, a, b, c1); err != nil {
			t.Fatal(err)
		}
		if err := MatMulParallel(m, n, k, a, b, c2, 1); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(c1, c2); d > 1e-10 {
			t.Errorf("%v: blocked differs from naive by %v", dims, d)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	m, n, k := 97, 83, 61
	a := randMat64(m*k, 11)
	b := randMat64(k*n, 12)
	c1 := make([]float64, m*n)
	c2 := make([]float64, m*n)
	if err := MatMulNaive(m, n, k, a, b, c1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 200} {
		if err := MatMulParallel(m, n, k, a, b, c2, workers); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(c1, c2); d > 1e-12 {
			t.Errorf("workers=%d: diff %v", workers, d)
		}
	}
}

func TestMatMulFloat32(t *testing.T) {
	m, n, k := 16, 16, 16
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	rng := rand.New(rand.NewSource(9))
	for i := range a {
		a[i] = rng.Float32()
	}
	for i := range b {
		b[i] = rng.Float32()
	}
	c1 := make([]float32, m*n)
	c2 := make([]float32, m*n)
	if err := MatMulNaive(m, n, k, a, b, c1); err != nil {
		t.Fatal(err)
	}
	if err := MatMulParallel(m, n, k, a, b, c2, 2); err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if math.Abs(float64(c1[i]-c2[i])) > 1e-4 {
			t.Fatalf("fp32 mismatch at %d", i)
		}
	}
}

func TestGEMMDimChecks(t *testing.T) {
	a := make([]float64, 4)
	if MatMulNaive(-1, 2, 2, a, a, a) == nil {
		t.Error("negative dim should fail")
	}
	if MatMulNaive(2, 2, 2, a[:3], a, a) == nil {
		t.Error("short A should fail")
	}
	if MatMulNaive(2, 2, 2, a, a[:3], a) == nil {
		t.Error("short B should fail")
	}
	if MatMulNaive(2, 2, 2, a, a, a[:3]) == nil {
		t.Error("short C should fail")
	}
	if MatMulParallel(2, 2, 2, a, a[:1], a, 2) == nil {
		t.Error("parallel short B should fail")
	}
	if MatMulParallel(2, 2, 2, a[:1], a, a, 2) == nil {
		t.Error("parallel short A should fail")
	}
}

func TestMatMulI8(t *testing.T) {
	// 2x2: A = [1 2; 3 4], B = [5 6; 7 8] → C = [19 22; 43 50]
	a := []int8{1, 2, 3, 4}
	b := []int8{5, 6, 7, 8}
	c := make([]int32, 4)
	if err := MatMulI8(2, 2, 2, a, b, c); err != nil {
		t.Fatal(err)
	}
	want := []int32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("c[%d] = %d, want %d", i, c[i], want[i])
		}
	}
	if MatMulI8(2, 2, 2, a[:1], b, c) == nil {
		t.Error("short buffer should fail")
	}
	if MatMulI8(-1, 2, 2, a, b, c) == nil {
		t.Error("negative dim should fail")
	}
}

// I8 GEMM accumulates in int32: saturating behaviour must NOT occur; the
// worst case 128×(−128·127) fits comfortably.
func TestMatMulI8NoOverflowAtFullRange(t *testing.T) {
	k := 128
	a := make([]int8, k)
	b := make([]int8, k)
	for i := range a {
		a[i] = -128
		b[i] = 127
	}
	c := make([]int32, 1)
	if err := MatMulI8(1, 1, k, a, b, c); err != nil {
		t.Fatal(err)
	}
	if c[0] != int32(k)*(-128)*127 {
		t.Errorf("c = %d, want %d", c[0], int32(k)*(-128)*127)
	}
}

// A matrix-vector product is a GEMM of one column.
func TestMatVec(t *testing.T) {
	// [1 2; 3 4] · [5, 6] = [17, 39]
	a := []float64{1, 2, 3, 4}
	x := []float64{5, 6}
	y := make([]float64, 2)
	if err := MatMulParallel(2, 1, 2, a, x, y, 0); err != nil {
		t.Fatal(err)
	}
	if y[0] != 17 || y[1] != 39 {
		t.Errorf("y = %v", y)
	}
	if MatMulParallel(2, 1, 2, a[:1], x, y, 0) == nil {
		t.Error("short buffer should fail")
	}
}

// Property: (A·B)·x == A·(B·x) for random small matrices, the left side
// from the blocked parallel kernel and the right from the naive
// reference, each matrix-vector product a GEMM of one column.
func TestGEMMAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n = 8
		a := randMat64(n*n, seed)
		b := randMat64(n*n, seed+1)
		x := randMat64(n, seed+2)
		ab := make([]float64, n*n)
		if err := MatMulParallel(n, n, n, a, b, ab, 2); err != nil {
			return false
		}
		y1 := make([]float64, n)
		if err := MatMulParallel(n, 1, n, ab, x, y1, 2); err != nil {
			return false
		}
		bx := make([]float64, n)
		if err := MatMulNaive(n, 1, n, b, x, bx); err != nil {
			return false
		}
		y2 := make([]float64, n)
		if err := MatMulNaive(n, 1, n, a, bx, y2); err != nil {
			return false
		}
		return maxAbsDiff(y1, y2) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
