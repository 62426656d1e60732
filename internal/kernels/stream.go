// Package kernels implements the numerical kernels behind the paper's
// microbenchmarks and mini-apps as real, tested host code: STREAM triad,
// FMA chains, blocked parallel GEMM in every benchmarked precision,
// mixed-radix and Bluestein FFTs, and the
// pointer-chase list (in the mem package).
//
// These kernels compute real results — tests verify them against naive
// references and mathematical identities — while their device execution
// time on the modeled GPUs comes from the perfmodel package.
//
//pvclint:ignore testonly DESIGN §1 real, tested numerical kernels: triad
package kernels

import (
	"fmt"
	"runtime"
	"sync"
)

// TriadFlopsPerElem and TriadBytesPerElem describe the triad's arithmetic
// intensity for float64 elements: a[i] = b[i] + s·c[i] is one multiply and
// one add over two loaded and one stored 8-byte value.
const (
	TriadFlopsPerElem = 2
	TriadBytesPerElem = 24
)

// Triad computes a[i] = b[i] + s*c[i], the STREAM triad the paper uses for
// its device memory bandwidth microbenchmark ("two loads, one store").
func Triad(a, b, c []float64, s float64) error {
	if len(a) != len(b) || len(a) != len(c) {
		return fmt.Errorf("kernels: triad length mismatch: %d/%d/%d", len(a), len(b), len(c))
	}
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
	return nil
}

// TriadParallel is Triad split across workers goroutines; workers <= 0
// uses GOMAXPROCS.
func TriadParallel(a, b, c []float64, s float64, workers int) error {
	if len(a) != len(b) || len(a) != len(c) {
		return fmt.Errorf("kernels: triad length mismatch: %d/%d/%d", len(a), len(b), len(c))
	}
	parallelRanges(len(a), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = b[i] + s*c[i]
		}
	})
	return nil
}

// effectiveWorkers clamps a worker count to [1, n].
func effectiveWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunkBounds splits n items into w contiguous chunks and returns chunk
// t's [lo, hi) bounds; the first n%w chunks get one extra item.
func chunkBounds(n, w, t int) (int, int) {
	base := n / w
	rem := n % w
	lo := t*base + min(t, rem)
	hi := lo + base
	if t < rem {
		hi++
	}
	return lo, hi
}

// parallelRanges runs body over contiguous index ranges covering [0, n)
// using the given worker count.
func parallelRanges(n, workers int, body func(lo, hi int)) {
	w := effectiveWorkers(n, workers)
	if w == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < w; t++ {
		lo, hi := chunkBounds(n, w, t)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
