package sim

import (
	"sort"
	"strings"
	"testing"

	"pvcsim/internal/units"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(2, func() { got = append(got, "c") })
	e.Schedule(1, func() { got = append(got, "b") })
	e.Schedule(1, func() { got = append(got, "b2") }) // FIFO at same time
	e.Schedule(0, func() { got = append(got, "a") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b2", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 2 {
		t.Errorf("clock = %v, want 2", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 0 {
		t.Errorf("ran=%v now=%v", ran, e.Now())
	}
}

func TestProcessHold(t *testing.T) {
	e := NewEngine()
	var times []units.Seconds
	e.Go("holder", func(p *Proc) {
		times = append(times, p.Now())
		p.Hold(1.5)
		times = append(times, p.Now())
		p.Hold(0.5)
		times = append(times, p.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []units.Seconds{0, 1.5, 2.0}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Hold(2)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Hold(1)
		order = append(order, "b1")
		p.Hold(2)
		order = append(order, "b3")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalWakesAllCurrentWaiters(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	woken := map[string]units.Seconds{}
	for _, n := range []string{"w1", "w2"} {
		name := n
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			woken[name] = p.Now()
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Hold(3)
		if s.Waiting() != 2 {
			t.Errorf("Waiting = %d, want 2", s.Waiting())
		}
		s.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken["w1"] != 3 || woken["w2"] != 3 {
		t.Errorf("woken = %v", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dma", 1)
	var order []string
	worker := func(name string, startDelay units.Seconds) {
		e.Go(name, func(p *Proc) {
			p.Hold(startDelay)
			r.Acquire(p)
			order = append(order, name+"+")
			p.Hold(10)
			order = append(order, name+"-")
			r.Release()
		})
	}
	worker("w1", 0)
	worker("w2", 1)
	worker("w3", 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w1+", "w1-", "w2+", "w2-", "w3+", "w3-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("final time = %v, want 30 (serialized)", e.Now())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "engines", 2)
	var finish []units.Seconds
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			r.Acquire(p)
			p.Hold(10)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(finish, func(i, j int) bool { return finish[i] < finish[j] })
	want := []units.Seconds{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
	if r.InUse() != 1 {
		t.Errorf("InUse = %d", r.InUse())
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	r := NewResource(e, "x", 1)
	r.Release()
}

func TestBarrier(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 3)
	var release []units.Seconds
	for i, d := range []units.Seconds{1, 5, 3} {
		_ = i
		delay := d
		e.Go("r", func(p *Proc) {
			p.Hold(delay)
			b.Arrive(p)
			release = append(release, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range release {
		if r != 5 {
			t.Fatalf("release times = %v, want all 5", release)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 2)
	count := 0
	for i := 0; i < 2; i++ {
		e.Go("r", func(p *Proc) {
			for step := 0; step < 3; step++ {
				p.Hold(1)
				b.Arrive(p)
				count++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Errorf("count = %d, want 6", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []units.Seconds
	for _, d := range []units.Seconds{1, 2, 3, 4} {
		dd := d
		e.Schedule(dd, func() { fired = append(fired, dd) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("now = %v, want 2.5", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || e.Now() != 4 {
		t.Errorf("after Run: fired=%v now=%v", fired, e.Now())
	}
}

func TestTracer(t *testing.T) {
	e := NewEngine()
	var events []string
	e.SetTracer(func(_ units.Seconds, what string) { events = append(events, what) })
	e.Go("p1", func(p *Proc) { p.Hold(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Errorf("expected start+finish trace events, got %v", events)
	}
}

// Determinism: the same model must produce the same event sequence twice.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		r := NewResource(e, "res", 1)
		var order []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				r.Acquire(p)
				order = append(order, name)
				p.Hold(1)
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// The deadlock error names the blockers holding waiters, with counts,
// sorted by blocker label.
func TestDeadlockDiagnosticsNameBlockers(t *testing.T) {
	e := NewEngine()
	sig := NewNamedSignal(e, "halo-ready")
	dma := NewResource(e, "pcie-dma", 1)
	e.Go("holder", func(p *Proc) {
		dma.Acquire(p)
		sig.Wait(p) // holds the unit forever
	})
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) { dma.Acquire(p) })
	}
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	want := "blocked: 3 on resource pcie-dma, 1 on signal halo-ready"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

// The event heap sheds capacity once it drains far below its
// high-water mark instead of pinning the peak forever.
func TestEventHeapShrinks(t *testing.T) {
	e := NewEngine()
	stop := false
	for i := 0; i < 4096; i++ {
		e.Schedule(units.Seconds(i), func() {})
	}
	peak := cap(e.queue)
	e.Schedule(5000, func() { stop = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !stop {
		t.Fatal("final event did not run")
	}
	if cap(e.queue) >= peak/4 {
		t.Errorf("heap capacity %d after drain, want < peak/4 (%d)", cap(e.queue), peak/4)
	}
}

// Steady-state scheduling reuses event structs from the
// free-list instead of allocating one per Schedule.
func TestEventFreeListReuse(t *testing.T) {
	e := NewEngine()
	// Prime the free-list.
	for i := 0; i < 64; i++ {
		e.Schedule(0, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(0, func() {})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// One closure value per iteration is expected; a fresh *event per
	// Schedule would make this ≥ 2.
	if allocs > 1.5 {
		t.Errorf("%.1f allocs per schedule+run cycle, want ≤ 1 (free-list reuse)", allocs)
	}
}

// RunUntil surfaces deadlock like Run: a blocked process with no
// pending event anywhere is an error, while pending future events are
// not.
func TestRunUntilReportsDeadlock(t *testing.T) {
	e := NewEngine()
	sig := NewNamedSignal(e, "stuck")
	e.Go("w", func(p *Proc) { sig.Wait(p) })
	if err := e.RunUntil(10); err == nil {
		t.Fatal("expected deadlock error from RunUntil")
	}
	e2 := NewEngine()
	sig2 := NewSignal(e2)
	e2.Go("w", func(p *Proc) { sig2.Wait(p) })
	e2.Go("firer", func(p *Proc) { p.Hold(20); sig2.Fire() })
	if err := e2.RunUntil(10); err != nil {
		t.Fatalf("deadline before the wake-up is not a deadlock: %v", err)
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}
