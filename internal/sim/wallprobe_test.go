package sim

import (
	"testing"

	"pvcsim/internal/units"
)

// TestWallprobeNilPathZeroAlloc pins the cost of the disabled wall-probe
// path and of the event queue: every hook site is a single nil compare,
// and events are values in the heap and FIFO slices, so a warm engine
// with no probe installed must schedule and drain events without
// allocating, even a burst large enough to have grown both well past
// their first backing arrays. `make bench-check` runs this test alongside the benchmark diff —
// a hook that boxes an argument or builds a closure on the nil path, or
// a queue that allocates per event, fails the build gate, not just a
// profile someone has to read.
func TestWallprobeNilPathZeroAlloc(t *testing.T) {
	e := NewEngine()
	if e.probe != nil {
		t.Fatal("fresh engine has a wall probe installed")
	}
	h := Func(func() {}) // captures nothing: a static func value, no per-call alloc
	const events = 512
	run := func() {
		for i := 0; i < events; i++ {
			e.Schedule(units.Seconds(float64(events-i)*1e-9), h)
			e.Schedule(0, h)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the heap's backing array to the burst
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("nil-probe schedule/run path allocates: %.2f allocs per run, want 0", avg)
	}
	if len(e.queue) != 0 || cap(e.queue) < events || len(e.fifo) != 0 || cap(e.fifo) < events {
		t.Errorf("drained heap: len %d cap %d, FIFO: len %d cap %d, want len 0 and the burst's capacity kept",
			len(e.queue), cap(e.queue), len(e.fifo), cap(e.fifo))
	}
}
