package sim

import (
	"testing"

	"pvcsim/internal/units"
)

// TestWallprobeNilPathZeroAlloc pins the cost of the disabled wall-probe
// path: every hook site is a single nil compare, so a warm engine with
// no probe installed must schedule and drain events without allocating.
// `make bench-check` runs this test alongside the benchmark diff — a
// hook that boxes an argument or builds a closure on the nil path fails
// the build gate, not just a profile someone has to read.
func TestWallprobeNilPathZeroAlloc(t *testing.T) {
	e := NewEngine()
	if e.probe != nil {
		t.Fatal("fresh engine has a wall probe installed")
	}
	fn := func() {}   // captures nothing: a static func value, no per-call alloc
	const events = 16 // stays under shrinkMinCap so the heap never reallocates
	run := func() {
		for i := 0; i < events; i++ {
			e.Schedule(units.Seconds(float64(i)*1e-9), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the free-list and the heap's backing array
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("nil-probe schedule/run path allocates: %.2f allocs per run, want 0", avg)
	}
}
