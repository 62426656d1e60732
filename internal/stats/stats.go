// Package stats implements the measurement policy of the paper's
// microbenchmark evaluation framework (§IV-A): each benchmark is executed
// multiple times and the best performance number is reported, which avoids
// run-to-run variation and intermittent artifacts.
package stats

import (
	"errors"
)

// ErrEmpty is returned by reductions over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Sample accumulates repeated measurements of one metric.
type Sample struct {
	values []float64
}

// Add records one measurement.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// Best returns the best (maximum) measurement, the paper's reporting rule
// for throughput-like metrics.
func (s *Sample) Best() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	best := s.values[0]
	for _, v := range s.values[1:] {
		if v > best {
			best = v
		}
	}
	return best, nil
}

// BestOf runs fn repeats times and returns the maximum result, implementing
// the paper's best-of-N throughput policy in one call.
func BestOf(repeats int, fn func() float64) float64 {
	if repeats < 1 {
		repeats = 1
	}
	var s Sample
	for i := 0; i < repeats; i++ {
		s.Add(fn())
	}
	best, _ := s.Best()
	return best
}
