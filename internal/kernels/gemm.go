package kernels

import (
	"fmt"
	"sync"
)

// Float covers the floating point element types of the GEMM kernels.
type Float interface {
	~float32 | ~float64
}

// GEMMFlops returns the conventional 2·m·n·k operation count the paper
// assumes ("A total of 2·N³ floating point operations is expected").
func GEMMFlops(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}

// checkGEMMDims validates row-major matrix buffer sizes for C(m×n) =
// A(m×k) × B(k×n).
func checkGEMMDims[T any](m, n, k int, a, b, c []T) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("kernels: negative GEMM dimension %dx%dx%d", m, n, k)
	}
	if len(a) < m*k {
		return fmt.Errorf("kernels: A has %d elements, need %d", len(a), m*k)
	}
	if len(b) < k*n {
		return fmt.Errorf("kernels: B has %d elements, need %d", len(b), k*n)
	}
	if len(c) < m*n {
		return fmt.Errorf("kernels: C has %d elements, need %d", len(c), m*n)
	}
	return nil
}

// MatMulNaive computes C = A·B with the textbook triple loop (row-major).
// It is the reference implementation the blocked kernels are verified
// against.
func MatMulNaive[T Float](m, n, k int, a, b, c []T) error {
	if err := checkGEMMDims(m, n, k, a, b, c); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum T
			for p := 0; p < k; p++ {
				sum += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return nil
}

// gemmBlock is the cache-blocking tile edge. 64×64 float64 tiles are 32 KiB
// per operand, comfortably inside typical L1/L2 host caches.
const gemmBlock = 64

// MatMul computes C = A·B with i-k-j loop order and cache blocking, the
// standard serial optimization ladder for a from-scratch GEMM.
func MatMul[T Float](m, n, k int, a, b, c []T) error {
	if err := checkGEMMDims(m, n, k, a, b, c); err != nil {
		return err
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	matMulRows(0, m, n, k, a, b, c)
	return nil
}

// matMulRows updates C rows [i0, i1) with blocked i-k-j order.
func matMulRows[T Float](i0, i1, n, k int, a, b, c []T) {
	for ii := i0; ii < i1; ii += gemmBlock {
		iMax := min(ii+gemmBlock, i1)
		for kk := 0; kk < k; kk += gemmBlock {
			kMax := min(kk+gemmBlock, k)
			for jj := 0; jj < n; jj += gemmBlock {
				jMax := min(jj+gemmBlock, n)
				for i := ii; i < iMax; i++ {
					arow := a[i*k : i*k+k]
					crow := c[i*n : i*n+n]
					for p := kk; p < kMax; p++ {
						av := arow[p]
						brow := b[p*n : p*n+n]
						for j := jj; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// MatMulParallel computes C = A·B with row-panel parallelism across
// workers goroutines (workers <= 0 uses GOMAXPROCS). Each worker owns a
// disjoint set of C rows, so no synchronization beyond the final join is
// needed.
func MatMulParallel[T Float](m, n, k int, a, b, c []T, workers int) error {
	if err := checkGEMMDims(m, n, k, a, b, c); err != nil {
		return err
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	w := effectiveWorkers(m, workers)
	if w == 1 {
		matMulRows(0, m, n, k, a, b, c)
		return nil
	}
	var wg sync.WaitGroup
	for t := 0; t < w; t++ {
		lo, hi := chunkBounds(m, w, t)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRows(lo, hi, n, k, a, b, c)
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// MatMulI8 computes C(int32) = A(int8)·B(int8), the I8GEMM of Table II:
// 8-bit integer inputs with 32-bit accumulation.
func MatMulI8(m, n, k int, a, b []int8, c []int32) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("kernels: negative GEMM dimension %dx%dx%d", m, n, k)
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		return fmt.Errorf("kernels: I8 GEMM buffer too small")
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := int32(a[i*k+p])
			brow := b[p*n : p*n+n]
			crow := c[i*n : i*n+n]
			for j := range brow {
				crow[j] += av * int32(brow[j])
			}
		}
	}
	return nil
}

// Transpose writes the transpose of row-major src(m×n) into dst(n×m).
func Transpose[T any](m, n int, src, dst []T) error {
	if len(src) < m*n || len(dst) < m*n {
		return fmt.Errorf("kernels: transpose buffer too small")
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
	return nil
}
