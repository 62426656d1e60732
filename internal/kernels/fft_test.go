package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

func maxCDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// DFTNaive is the O(n²) reference transform the FFT tests compare against.
func DFTNaive(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

func TestSmoothnessDetection(t *testing.T) {
	for _, n := range []int{1, 2, 4096, 20000, 10000, 60, 3125} {
		if !smooth235(n) {
			t.Errorf("%d should be 2/3/5-smooth", n)
		}
	}
	for _, n := range []int{7, 11, 14, 4097} {
		if smooth235(n) {
			t.Errorf("%d should not be smooth", n)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	// Cover radix 2, 3, 5, mixed, and a Bluestein (prime) size.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 15, 30, 32, 100, 7, 13, 31} {
		x := randComplex(n, int64(n))
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := DFTNaive(x, false)
		if d := maxCDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT differs from DFT by %v", n, d)
		}
	}
}

func TestIFFTMatchesNaive(t *testing.T) {
	for _, n := range []int{4, 9, 25, 11} {
		x := randComplex(n, int64(100+n))
		got, err := IFFT(x)
		if err != nil {
			t.Fatal(err)
		}
		want := DFTNaive(x, true)
		if d := maxCDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: IFFT differs by %v", n, d)
		}
	}
}

func TestFFTRoundTripPaperSizes(t *testing.T) {
	// The paper's 1-D sizes: 4096 and 20000.
	for _, n := range []int{4096, 20000} {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.bluestein != nil {
			t.Errorf("n=%d should use the mixed-radix path", n)
		}
		x := randComplex(n, int64(n))
		fx := make([]complex128, n)
		if err := p.Forward(fx, x); err != nil {
			t.Fatal(err)
		}
		back := make([]complex128, n)
		if err := p.Inverse(back, fx); err != nil {
			t.Fatal(err)
		}
		if d := maxCDiff(x, back); d > 1e-9 {
			t.Errorf("n=%d: roundtrip error %v", n, d)
		}
	}
}

func TestBluesteinPath(t *testing.T) {
	p, err := NewFFTPlan(97) // prime
	if err != nil {
		t.Fatal(err)
	}
	if p.bluestein == nil {
		t.Error("97 should use Bluestein")
	}
	x := randComplex(97, 7)
	fx := make([]complex128, 97)
	if err := p.Forward(fx, x); err != nil {
		t.Fatal(err)
	}
	want := DFTNaive(x, false)
	if d := maxCDiff(fx, want); d > 1e-8 {
		t.Errorf("Bluestein forward differs by %v", d)
	}
	back := make([]complex128, 97)
	if err := p.Inverse(back, fx); err != nil {
		t.Fatal(err)
	}
	if d := maxCDiff(x, back); d > 1e-8 {
		t.Errorf("Bluestein roundtrip error %v", d)
	}
}

// Parseval: Σ|x|² == (1/N)·Σ|X|².
func TestParseval(t *testing.T) {
	n := 240
	x := randComplex(n, 42)
	fx, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	var ex, ef float64
	for i := 0; i < n; i++ {
		ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
	}
	if math.Abs(ex-ef/float64(n)) > 1e-9*ex {
		t.Errorf("Parseval violated: %v vs %v", ex, ef/float64(n))
	}
}

// A unit impulse transforms to the all-ones spectrum.
func TestImpulseResponse(t *testing.T) {
	n := 60
	x := make([]complex128, n)
	x[0] = 1
	fx, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range fx {
		if cmplx.Abs(fx[k]-1) > 1e-12 {
			t.Fatalf("impulse spectrum at %d = %v", k, fx[k])
		}
	}
}

// Linearity: FFT(αx + βy) == α·FFT(x) + β·FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 48
		x := randComplex(n, seed)
		y := randComplex(n, seed+99)
		al, be := complex(1.5, -0.5), complex(-2.0, 0.25)
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = al*x[i] + be*y[i]
		}
		fm, err := FFT(mix)
		if err != nil {
			return false
		}
		fx, _ := FFT(x)
		fy, _ := FFT(y)
		for i := range fm {
			if cmplx.Abs(fm[i]-(al*fx[i]+be*fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFFTPlanErrors(t *testing.T) {
	if _, err := NewFFTPlan(0); err == nil {
		t.Error("n=0 should fail")
	}
	p, _ := NewFFTPlan(8)
	if err := p.Forward(make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Error("short dst should fail")
	}
	if err := p.Inverse(make([]complex128, 8), make([]complex128, 4)); err == nil {
		t.Error("short src should fail")
	}
	if p.n != 8 {
		t.Error("Size")
	}
}

// Time shift property: shifting input rotates phases; magnitude spectrum
// is unchanged.
func TestShiftInvariantMagnitude(t *testing.T) {
	n := 50
	x := randComplex(n, 8)
	shifted := make([]complex128, n)
	for i := range x {
		shifted[i] = x[(i+7)%n]
	}
	fx, _ := FFT(x)
	fs, _ := FFT(shifted)
	for k := range fx {
		if math.Abs(cmplx.Abs(fx[k])-cmplx.Abs(fs[k])) > 1e-9 {
			t.Fatalf("magnitude changed at bin %d", k)
		}
	}
}
