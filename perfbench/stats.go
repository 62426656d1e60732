package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at, highest
// first. A fixed ladder keeps the reported percentile the same across
// runs whose sample counts differ a little.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above the reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail is a high percentile of a sample set, with the evidence behind it.
type tail struct {
	P      float64 // percentile, e.g. 99
	Value  float64
	N      int // samples in the set
	Beyond int // samples strictly above the reported rank
	OK     bool
}

// nearestRank returns the p-th percentile of sorted xs by the nearest-rank
// rule and the number of samples ranked above it.
func nearestRank(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps float error in p/100*n from pushing an exact rank
	// up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// tailOf returns the highest ladder percentile with at least minBeyond
// samples beyond it. With too few samples for any rung it reports the
// maximum and OK=false.
func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	sorted := sortedCopy(xs)
	for _, p := range tailLadder {
		if v, beyond := nearestRank(sorted, p); beyond >= minBeyond {
			return tail{P: p, Value: v, N: len(sorted), Beyond: beyond, OK: true}
		}
	}
	return tail{P: 100, Value: sorted[len(sorted)-1], N: len(sorted)}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
