package kernels

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// This file provides the optimized transform path: an in-place iterative
// radix-2 FFT (bit-reversal + butterfly passes, zero allocation per call)
// used automatically by FFTPlan for power-of-two sizes. The recursive
// mixed-radix path in fft.go remains the reference for other sizes; tests
// cross-check the two.

// pow2Plan holds the precomputed state of the iterative path.
type pow2Plan struct {
	n       int
	rev     []int        // bit-reversal permutation
	twiddle []complex128 // forward twiddles for each stage, packed
}

func newPow2Plan(n int) *pow2Plan {
	p := &pow2Plan{n: n, rev: make([]int, n)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	// Stage twiddles: for span s = 1, 2, 4, ..., n/2 store s factors.
	for s := 1; s < n; s <<= 1 {
		for j := 0; j < s; j++ {
			ang := -math.Pi * float64(j) / float64(s)
			p.twiddle = append(p.twiddle, cmplx.Exp(complex(0, ang)))
		}
	}
	return p
}

// transform runs the in-place iterative FFT over dst (which must already
// hold the input).
func (p *pow2Plan) transform(dst []complex128, inverse bool) {
	n := p.n
	for i, r := range p.rev {
		if i < r {
			dst[i], dst[r] = dst[r], dst[i]
		}
	}
	tw := p.twiddle
	off := 0
	for s := 1; s < n; s <<= 1 {
		for base := 0; base < n; base += 2 * s {
			for j := 0; j < s; j++ {
				w := tw[off+j]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := dst[base+j]
				b := dst[base+j+s] * w
				dst[base+j] = a + b
				dst[base+j+s] = a - b
			}
		}
		off += s
	}
}

// IsPow2 reports whether n is a power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
