package kernels

import (
	"testing"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 4096} {
		if !IsPow2(n) {
			t.Errorf("%d should be pow2", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 4097} {
		if IsPow2(n) {
			t.Errorf("%d should not be pow2", n)
		}
	}
}

// The iterative radix-2 path matches the naive DFT.
func TestFFTPow2MatchesNaive(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 256} {
		x := randComplex(n, int64(n))
		dst := append([]complex128(nil), x...)
		newPow2Plan(n).transform(dst, false)
		want := DFTNaive(x, false)
		if d := maxCDiff(dst, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: pow2 FFT differs by %v", n, d)
		}
	}
}

// The plan transparently uses the iterative path for powers of two —
// including the paper's 4096-point size — and roundtrips.
func TestPlanUsesPow2Path(t *testing.T) {
	p, err := NewFFTPlan(4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.pow2 == nil {
		t.Fatal("4096 plan should use the iterative path")
	}
	x := randComplex(4096, 9)
	fx := make([]complex128, 4096)
	if err := p.Forward(fx, x); err != nil {
		t.Fatal(err)
	}
	back := make([]complex128, 4096)
	if err := p.Inverse(back, fx); err != nil {
		t.Fatal(err)
	}
	if d := maxCDiff(back, x); d > 1e-9 {
		t.Errorf("pow2 roundtrip error %v", d)
	}
	// In-place operation (dst aliases src).
	y := randComplex(64, 10)
	want := DFTNaive(y, false)
	p64, _ := NewFFTPlan(64)
	if err := p64.Forward(y, y); err != nil {
		t.Fatal(err)
	}
	if d := maxCDiff(y, want); d > 1e-9 {
		t.Errorf("in-place pow2 differs by %v", d)
	}
	// The 20000-point mixed-radix plan must NOT take the pow2 path.
	p20k, _ := NewFFTPlan(20000)
	if p20k.pow2 != nil {
		t.Error("20000 should use the mixed-radix path")
	}
}
