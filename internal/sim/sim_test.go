package sim

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/units"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(2, Func(func() { got = append(got, "c") }))
	e.Schedule(1, Func(func() { got = append(got, "b") }))
	e.Schedule(1, Func(func() { got = append(got, "b2") })) // FIFO at same time
	e.Schedule(0, Func(func() { got = append(got, "a") }))
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
	e.Schedule(-5, Func(func() { ran = true }))
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
	s := NewNamedSignal("s")
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
		if s.inline[0] == nil || s.inline[1] == nil || len(s.more) != 0 {
			t.Errorf("waiters = %v inline + %d more, want the 2 inline", s.inline, len(s.more))
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
	s := NewNamedSignal("s")
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

// Determinism: the same model must produce the same event sequence twice.
func TestBarrier(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(3)
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
	b := NewBarrier(2)
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
	sig := NewNamedSignal("halo-ready")
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

// countingName is a signal name that counts how often it is formatted.
type countingName struct {
	name  string
	calls int
}

func (c *countingName) String() string { c.calls++; return c.name }

// A blocker's label is formatted only when a deadlock is reported: a run
// that completes never builds one, and keeps no finished process, while a
// deadlocked run still names its blockers with counts.
func TestBlockerLabelsFormatOnlyOnDeadlock(t *testing.T) {
	e := NewEngine()
	late := &countingName{name: "late"}
	sig := &Signal{Label: late}
	dma := NewResource(e, "dma", 1)
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			sig.Wait(p)
			dma.Acquire(p)
			p.Hold(1)
			dma.Release()
		})
	}
	e.Go("firer", func(p *Proc) { p.Hold(1); sig.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if late.calls != 0 {
		t.Errorf("completed run formatted the signal's label %d times, want 0", late.calls)
	}
	if len(e.procs) != 0 {
		t.Errorf("engine retains %d finished processes", len(e.procs))
	}

	e2 := NewEngine()
	stuck := &countingName{name: "stuck"}
	sig2 := &Signal{Label: stuck}
	for i := 0; i < 2; i++ {
		e2.Go("w", func(p *Proc) { sig2.Wait(p) })
	}
	e2.Go("done", func(p *Proc) { p.Hold(1) })
	err := e2.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	want := "2 process(es) blocked with empty event queue; blocked: 2 on signal stuck"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	if stuck.calls == 0 {
		t.Error("deadlock report did not format the signal's label")
	}
}

// A panic in a process body is re-raised by Run on the caller's
// goroutine as a *ProcPanic naming the process, and the run's other live
// processes are unwound rather than left blocked.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	sig := NewNamedSignal("never")
	e.Go("waiter", func(p *Proc) { sig.Wait(p) })
	e.Go("holder", func(p *Proc) { p.Hold(5) })
	e.Go("bad", func(p *Proc) {
		p.Hold(1)
		panic("model bug")
	})
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok {
			t.Fatalf("Run did not re-raise a *ProcPanic")
		}
		if pp.Proc != "bad" || pp.Value != "model bug" {
			t.Errorf("panic = process %q value %v, want process bad value model bug", pp.Proc, pp.Value)
		}
		if !strings.Contains(string(pp.Stack), "TestProcessPanicReachesRunCaller") {
			t.Errorf("panic stack does not reach the process body:\n%s", pp.Stack)
		}
		if len(e.procs) != 0 || len(e.queue) != 0 {
			t.Errorf("after the panic the engine keeps %d processes and %d events, want none", len(e.procs), len(e.queue))
		}
	}()
	_ = e.Run()
	t.Fatal("Run returned instead of re-raising the process panic")
}

// settledGoroutines waits briefly for exiting goroutines to finish and
// reports the count once it is at most want.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A deadlocked run unwinds its blocked processes: their goroutines exit,
// and the deadlock report still counts and names them.
func TestDeadlockLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	sig := NewNamedSignal("stuck")
	unwound := 0
	for i := 0; i < 8; i++ {
		e.Go("w", func(p *Proc) {
			defer func() { unwound++ }()
			sig.Wait(p)
		})
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "8 process(es) blocked with empty event queue; blocked: 8 on signal stuck") {
		t.Fatalf("err = %v, want the census of 8 waiters on signal stuck", err)
	}
	if unwound != 8 {
		t.Errorf("%d of 8 blocked processes ran their deferred calls", unwound)
	}
	if after := settledGoroutines(before); after > before {
		t.Errorf("goroutines: %d before the run, %d after the deadlock", before, after)
	}
}

// Steady-state scheduling reuses the heap slice's storage: events are
// values, so a warm engine allocates no event per Schedule.
func TestEventFreeListReuse(t *testing.T) {
	e := NewEngine()
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(0, Func(func() {}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(0, Func(func() {}))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	// One closure value per iteration is allowed; a fresh event
	// allocation per Schedule would make this ≥ 2.
	if allocs > 1.5 {
		t.Errorf("%.1f allocs per schedule+run cycle, want ≤ 1 (heap storage reuse)", allocs)
	}
}

// A panic in an event callback reaches Run's caller with its own value,
// not wrapped: callbacks run on Run's goroutine, never on a process's.
// The run's live processes are unwound, so no goroutine outlives it —
// whether the callback comes right after a process finished (the event
// a finishing process would meet next) or while others are blocked.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model func(e *Engine, unwound *int)
	}{
		{"after a process finished", func(e *Engine, _ *int) {
			e.Go("done", func(p *Proc) { p.Hold(1) })
			e.Schedule(1, Func(func() { panic("callback bug") }))
		}},
		{"while processes are blocked", func(e *Engine, unwound *int) {
			sig := NewNamedSignal("never")
			e.Go("waiter", func(p *Proc) {
				defer func() { *unwound++ }()
				sig.Wait(p)
			})
			e.Go("holder", func(p *Proc) {
				defer func() { *unwound++ }()
				p.Hold(5)
			})
			e.Schedule(1, Func(func() { panic("callback bug") }))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			unwound := 0
			tc.model(e, &unwound)
			func() {
				defer func() {
					if v := recover(); v != "callback bug" {
						t.Errorf("recovered %#v, want the callback's own value", v)
					}
				}()
				_ = e.Run()
				t.Error("Run returned instead of re-raising the callback panic")
			}()
			if tc.name == "while processes are blocked" && unwound != 2 {
				t.Errorf("%d of 2 blocked processes ran their deferred calls", unwound)
			}
			if len(e.procs) != 0 || len(e.queue) != 0 {
				t.Errorf("after the panic the engine keeps %d processes and %d events, want none", len(e.procs), len(e.queue))
			}
			if after := settledGoroutines(before); after > before {
				t.Errorf("goroutines: %d before the run, %d after the callback panic", before, after)
			}
		})
	}
}

// BenchmarkEngine_ProcessPingPong measures the cost of one process wake:
// two processes take turns through a pair of signals, so every wake is a
// handoff from one process goroutine to the other. pong starts first so
// it is waiting when ping fires.
func BenchmarkEngine_ProcessPingPong(b *testing.B) {
	e := NewEngine()
	ping, pong := NewNamedSignal("ping"), NewNamedSignal("pong")
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Wait(p)
			pong.Fire()
		}
	})
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Fire()
			pong.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/wake")
}
