package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*2 - 1
	}
	return out
}

func TestTriadParallelMatchesSerial(t *testing.T) {
	n := 10001
	b, c := randSlice(n, 1), randSlice(n, 2)
	a1, a2 := make([]float64, n), make([]float64, n)
	for i := range a1 {
		a1[i] = b[i] + 3.5*c[i]
	}
	if err := TriadParallel(a2, b, c, 3.5, 4); err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
	if err := TriadParallel(a2, b[:5], c, 1, 2); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestChunkBoundsCoverExactly(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw) + 1
		w := int(wRaw)%n + 1
		covered := 0
		prevHi := 0
		for t := 0; t < w; t++ {
			lo, hi := chunkBounds(n, w, t)
			if lo != prevHi || hi < lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveWorkers(t *testing.T) {
	if effectiveWorkers(10, 100) != 10 {
		t.Error("workers should clamp to n")
	}
	if effectiveWorkers(10, 0) < 1 {
		t.Error("workers should default to >= 1")
	}
	if effectiveWorkers(0, 4) != 1 {
		t.Error("n=0 should give 1 worker")
	}
}

func TestFMAChainMatchesClosedForm(t *testing.T) {
	xs := []float64{1.0, 0.5, -2.0}
	orig := append([]float64(nil), xs...)
	const a, b, depth = 0.999, 0.001, 512
	flops := FMAChain64(xs, a, b, depth)
	if flops != int64(3*depth*2) {
		t.Errorf("flops = %d", flops)
	}
	for i := range xs {
		want := FMAClosedForm(orig[i], a, b, depth)
		if math.Abs(xs[i]-want) > 1e-9 {
			t.Errorf("lane %d: %v, want %v", i, xs[i], want)
		}
	}
}

func TestFMAChainDefaultDepth(t *testing.T) {
	xs := make([]float64, 2)
	flops := FMAChain64(xs, 1, 0, 0)
	if flops != int64(2*FMAChainDepth*2) {
		t.Errorf("default depth flops = %d", flops)
	}
}

func TestFMAClosedFormAIsOne(t *testing.T) {
	if got := FMAClosedForm(3, 1, 2, 10); got != 23 {
		t.Errorf("closed form a=1: %v", got)
	}
}
