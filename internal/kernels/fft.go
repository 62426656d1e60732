package kernels

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFTPlan precomputes twiddle factors for transforms of one size. Sizes
// with only factors 2, 3 and 5 (all sizes the paper uses: 4096 = 2¹²,
// 20000 = 2⁵·5⁴, 10000 = 2⁴·5⁴) run as mixed-radix Cooley-Tukey; any
// other size falls back to Bluestein's chirp-z algorithm built on a
// power-of-two plan.
type FFTPlan struct {
	n int
	w []complex128 // w[j] = exp(-2πi·j/n)

	// pow2 is the zero-allocation iterative radix-2 path, used when n is
	// a power of two (every stage of the paper's 4096-point benchmark).
	pow2 *pow2Plan
	// Bluestein state (nil when n is 2/3/5-smooth).
	bluestein *bluesteinPlan
}

type bluesteinPlan struct {
	m     int // power-of-two convolution size ≥ 2n−1
	inner *FFTPlan
	chirp []complex128 // exp(-iπ k²/n)
	bfft  []complex128 // FFT of the chirp filter
}

// NewFFTPlan builds a plan for length-n transforms.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("kernels: FFT size must be >= 1, got %d", n)
	}
	p := &FFTPlan{n: n, w: make([]complex128, n)}
	for j := 0; j < n; j++ {
		ang := -2 * math.Pi * float64(j) / float64(n)
		p.w[j] = cmplx.Exp(complex(0, ang))
	}
	switch {
	case IsPow2(n) && n > 1:
		p.pow2 = newPow2Plan(n)
	case !smooth235(n):
		if err := p.initBluestein(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func smooth235(n int) bool {
	for _, f := range []int{2, 3, 5} {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

func smallestFactor(n int) int {
	for _, f := range []int{2, 3, 5} {
		if n%f == 0 {
			return f
		}
	}
	return n
}

// Forward computes the unnormalized DFT: X[k] = Σ x[j]·exp(−2πi·jk/n).
// dst and src must each have length n and may alias.
func (p *FFTPlan) Forward(dst, src []complex128) error {
	return p.run(dst, src, false)
}

// Inverse computes the inverse DFT with 1/n normalization, so
// Inverse(Forward(x)) == x.
func (p *FFTPlan) Inverse(dst, src []complex128) error {
	if err := p.run(dst, src, true); err != nil {
		return err
	}
	inv := complex(1/float64(p.n), 0)
	for i := range dst[:p.n] {
		dst[i] *= inv
	}
	return nil
}

func (p *FFTPlan) run(dst, src []complex128, inverse bool) error {
	if len(dst) < p.n || len(src) < p.n {
		return fmt.Errorf("kernels: FFT buffers too short for n=%d", p.n)
	}
	if p.pow2 != nil {
		if &dst[0] != &src[0] {
			copy(dst[:p.n], src[:p.n])
		}
		p.pow2.transform(dst[:p.n], inverse)
		return nil
	}
	if p.bluestein != nil {
		return p.runBluestein(dst, src, inverse)
	}
	out := p.recurse(src, 1, p.n, 1, inverse)
	copy(dst[:p.n], out)
	return nil
}

// tw returns W_current^j for the current sub-size, where mul = N/size maps
// sub-level twiddles onto the precomputed W_N table.
func (p *FFTPlan) tw(j, mul int, inverse bool) complex128 {
	v := p.w[(j*mul)%p.n]
	if inverse {
		return cmplx.Conj(v)
	}
	return v
}

// recurse is the mixed-radix decimation-in-time Cooley-Tukey step: split
// size n = r·m over residues mod r, transform each, then combine with
// X[k] = Σ_q W_n^{qk}·F_q[k mod m].
func (p *FFTPlan) recurse(src []complex128, stride, n, mul int, inverse bool) []complex128 {
	if n == 1 {
		return []complex128{src[0]}
	}
	r := smallestFactor(n)
	m := n / r
	sub := make([][]complex128, r)
	for q := 0; q < r; q++ {
		sub[q] = p.recurse(src[q*stride:], stride*r, m, mul*r, inverse)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		sum := sub[0][k%m]
		for q := 1; q < r; q++ {
			sum += p.tw((q*k)%n, mul, inverse) * sub[q][k%m]
		}
		out[k] = sum
	}
	return out
}

func (p *FFTPlan) initBluestein() error {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	inner, err := NewFFTPlan(m)
	if err != nil {
		return err
	}
	b := &bluesteinPlan{m: m, inner: inner}
	b.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k² mod 2n to avoid float blow-up for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		b.chirp[k] = cmplx.Exp(complex(0, ang))
	}
	// Filter h[j] = conj(chirp[|j|]) arranged circularly over m.
	h := make([]complex128, m)
	for k := 0; k < n; k++ {
		v := cmplx.Conj(b.chirp[k])
		h[k] = v
		if k > 0 {
			h[m-k] = v
		}
	}
	b.bfft = make([]complex128, m)
	if err := inner.Forward(b.bfft, h); err != nil {
		return err
	}
	p.bluestein = b
	return nil
}

func (p *FFTPlan) runBluestein(dst, src []complex128, inverse bool) error {
	b := p.bluestein
	n, m := p.n, b.m
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		ch := b.chirp[k]
		if inverse {
			ch = cmplx.Conj(ch)
		}
		a[k] = src[k] * ch
	}
	fa := make([]complex128, m)
	if err := b.inner.Forward(fa, a); err != nil {
		return err
	}
	filt := b.bfft
	if inverse {
		// The inverse transform uses the conjugate chirp; its filter FFT
		// is the conjugate-symmetric counterpart. Recompute cheaply via
		// conjugation trick: FFT(conj(h)) = conj(reverse(FFT(h))).
		filt = make([]complex128, m)
		filt[0] = cmplx.Conj(b.bfft[0])
		for j := 1; j < m; j++ {
			filt[j] = cmplx.Conj(b.bfft[m-j])
		}
	}
	for j := 0; j < m; j++ {
		fa[j] *= filt[j]
	}
	conv := make([]complex128, m)
	if err := b.inner.Inverse(conv, fa); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		ch := b.chirp[k]
		if inverse {
			ch = cmplx.Conj(ch)
		}
		dst[k] = conv[k] * ch
	}
	return nil
}

// FFT is a convenience one-shot forward transform.
func FFT(x []complex128) ([]complex128, error) {
	p, err := NewFFTPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Forward(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT is a convenience one-shot inverse transform.
func IFFT(x []complex128) ([]complex128, error) {
	p, err := NewFFTPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	if err := p.Inverse(out, x); err != nil {
		return nil, err
	}
	return out, nil
}
