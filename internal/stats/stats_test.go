package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if _, err := s.Best(); err != ErrEmpty {
		t.Error("Best on empty should return ErrEmpty")
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if len(s.values) != 5 {
		t.Fatalf("len = %d", len(s.values))
	}
	if best, _ := s.Best(); best != 5 {
		t.Errorf("Best = %v", best)
	}
}

func TestBestOf(t *testing.T) {
	i := 0
	got := BestOf(5, func() float64 {
		i++
		return float64(i % 3) // 1,2,0,1,2
	})
	if got != 2 {
		t.Errorf("BestOf = %v, want 2", got)
	}
	if i != 5 {
		t.Errorf("fn called %d times, want 5", i)
	}
	// repeats < 1 clamps to one call
	calls := 0
	BestOf(0, func() float64 { calls++; return 1 })
	if calls != 1 {
		t.Errorf("BestOf(0) calls = %d, want 1", calls)
	}
}

// Property: Best is >= every recorded value and is one of them.
func TestBestBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			s.Add(v)
		}
		hi, _ := s.Best()
		found := false
		for _, v := range s.values {
			if v > hi {
				return false
			}
			found = found || v == hi
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
