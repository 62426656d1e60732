//pvclint:ignore testonly DESIGN §3 X16 MC statistics: stats.BootstrapCI, autocorrelation, batch-means stderr
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Bootstrap resampling and batch-autocorrelation diagnostics for the
// Monte Carlo estimators (OpenMC's batch k-effective means): the standard
// toolkit for quoting honest uncertainties from correlated batch series.

// BootstrapCI returns the (lo, hi) percentile confidence interval of the
// mean of xs at the given confidence level (e.g. 0.95), using resamples
// bootstrap replicates with a deterministic seed.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed int64) (lo, hi float64, err error) {
	if len(xs) < 2 {
		return 0, 0, errors.New("stats: bootstrap needs at least 2 samples")
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("stats: confidence must be in (0,1)")
	}
	if resamples < 10 {
		resamples = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	means := make([]float64, resamples)
	n := len(xs)
	for r := range means {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += xs[rng.Intn(n)]
		}
		means[r] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	loIdx := int(alpha * float64(resamples))
	hiIdx := int((1 - alpha) * float64(resamples))
	if hiIdx >= resamples {
		hiIdx = resamples - 1
	}
	return means[loIdx], means[hiIdx], nil
}

// Autocorrelation returns the lag-k autocorrelation coefficient of xs,
// the diagnostic for under-converged Monte Carlo batch series.
func Autocorrelation(xs []float64, lag int) (float64, error) {
	n := len(xs)
	if lag < 1 || lag >= n {
		return 0, errors.New("stats: lag out of range")
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - mean
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// BlockedStddev returns the standard error of the mean estimated with
// non-overlapping blocks of the given size — the batch-means method that
// corrects for serial correlation.
func BlockedStddev(xs []float64, block int) (float64, error) {
	if block < 1 || block > len(xs) {
		return 0, errors.New("stats: bad block size")
	}
	nBlocks := len(xs) / block
	if nBlocks < 2 {
		return 0, errors.New("stats: need at least 2 blocks")
	}
	var s Sample
	for b := 0; b < nBlocks; b++ {
		sum := 0.0
		for i := b * block; i < (b+1)*block; i++ {
			sum += xs[i]
		}
		s.Add(sum / float64(block))
	}
	sd, err := s.Stddev()
	if err != nil {
		return 0, err
	}
	return sd / math.Sqrt(float64(nBlocks)), nil
}
