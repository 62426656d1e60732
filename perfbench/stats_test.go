package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: tailOf must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 1000, p: 99, value: 990, beyond: 10, ok: true},
		{n: 999, p: 95, value: 950, beyond: 49, ok: true}, // p99 would leave 9 beyond
		{n: 100, p: 90, value: 90, beyond: 10, ok: true},
		{n: 20, p: 50, value: 10, beyond: 10, ok: true},
		{n: 19, p: 100, value: 19, beyond: 0, ok: false}, // too few for any rung: the maximum
		{n: 20000, p: 99.9, value: 19980, beyond: 20, ok: true},
	} {
		got := tailOf(seq(tc.n))
		want := tail{P: tc.p, Value: tc.value, N: tc.n, Beyond: tc.beyond, OK: tc.ok}
		if got != want {
			t.Errorf("tailOf(1..%d) = %+v, want %+v", tc.n, got, want)
		}
	}
	if got := tailOf(nil); got.N != 0 || got.OK {
		t.Errorf("tailOf(nil) = %+v, want the zero tail", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
