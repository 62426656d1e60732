package fabric

import (
	"math"
	"strings"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// named is a flow label fixed at the call site.
func named(s string) func() string { return func() string { return s } }

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > tol {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestSingleFlowTime(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100) // 100 B/s
	var done units.Seconds
	e.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, named("t"), 500, 0, c)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "single flow time", float64(done), 5.0, 1e-9)
}

func TestLatencyChargedUpFront(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	var done units.Seconds
	e.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, named("t"), 100, 2, c)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "latency+transfer", float64(done), 3.0, 1e-9)
}

func TestZeroByteTransferInstant(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	var done units.Seconds
	e.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, named("t"), 0, 0, c)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Errorf("zero transfer took %v", done)
	}
}

func TestNoConstraintTransferInstant(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	var done units.Seconds
	e.Go("xfer", func(p *sim.Proc) {
		n.Transfer(p, named("t"), 1e12, 0)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 0 {
		t.Errorf("unconstrained transfer took %v", done)
	}
}

// Two equal flows share the pipe: each takes twice as long.
func TestEqualSharing(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	var t1, t2 units.Seconds
	e.Go("a", func(p *sim.Proc) { n.Transfer(p, named("a"), 500, 0, c); t1 = p.Now() })
	e.Go("b", func(p *sim.Proc) { n.Transfer(p, named("b"), 500, 0, c); t2 = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "flow a", float64(t1), 10.0, 1e-6)
	approx(t, "flow b", float64(t2), 10.0, 1e-6)
}

// A short flow departs and the long flow speeds up: 100B and 900B on a
// 100 B/s pipe → short finishes at t=2 (50 B/s each), at which point the
// long flow has 800B left and gets the full rate: t = 2 + 800/100 = 10.
func TestDepartureSpeedsUpRemainder(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	var tShort, tLong units.Seconds
	e.Go("short", func(p *sim.Proc) { n.Transfer(p, named("s"), 100, 0, c); tShort = p.Now() })
	e.Go("long", func(p *sim.Proc) { n.Transfer(p, named("l"), 900, 0, c); tLong = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "short flow", float64(tShort), 2.0, 1e-6)
	approx(t, "long flow", float64(tLong), 10.0, 1e-6)
}

// A late joiner slows the first flow mid-transfer.
func TestLateJoiner(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	var tA units.Seconds
	e.Go("a", func(p *sim.Proc) { n.Transfer(p, named("a"), 1000, 0, c); tA = p.Now() })
	e.Go("b", func(p *sim.Proc) {
		p.Hold(5) // a has moved 500 B
		n.Transfer(p, named("b"), 250, 0, c)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// From t=5 both share 50 B/s; b finishes at t=10 (250B), a has
	// 500-250=250 left at t=10, full rate → t=12.5.
	approx(t, "slowed flow", float64(tA), 12.5, 1e-6)
}

// The duplex constraint reproduces the paper's PCIe behaviour: one
// direction gets the full unidirectional 54 GB/s; both directions
// simultaneously total 1.41× that, not 2×.
func TestLinkDuplexBehaviour(t *testing.T) {
	spec := hw.NewAuroraPVC().HostLink
	e := sim.NewEngine()
	n := NewNetwork(e)
	l := NewLink(n, "pcie0", spec.Sustained(), spec.DuplexFactor, 0)

	size := units.Bytes(500 * units.MB)
	var tH2D units.Seconds
	e.Go("h2d", func(p *sim.Proc) { n.Transfer(p, named("h2d"), size, 0, l.Dir(false)...); tH2D = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(size) / float64(tH2D)
	approx(t, "uni H2D bandwidth", bw, 54e9, 0.02)

	// Bidirectional: 500 MB each way simultaneously.
	e2 := sim.NewEngine()
	n2 := NewNetwork(e2)
	l2 := NewLink(n2, "pcie0", spec.Sustained(), spec.DuplexFactor, 0)
	var tEnd units.Seconds
	for _, rev := range []bool{false, true} {
		r := rev
		e2.Go("dir", func(p *sim.Proc) {
			n2.Transfer(p, named("x"), size, 0, l2.Dir(r)...)
			if p.Now() > tEnd {
				tEnd = p.Now()
			}
		})
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	total := 2 * float64(size) / float64(tEnd)
	approx(t, "bidir total bandwidth", total, 76e9, 0.02)
}

// Host-side pool contention: six cards reading back simultaneously share a
// 264 GB/s host sink even though each PCIe link could carry 54 GB/s —
// the paper's 40% full-node D2H scaling.
func TestHostPoolContention(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	pool := n.MustConstraint("host-d2h-pool", 264*units.GBps)
	size := units.Bytes(500 * units.MB)
	var finish units.Seconds
	for card := 0; card < 6; card++ {
		link := NewLink(n, "pcie", 54*units.GBps, 1.41, 0)
		// Two stacks per card share the card's PCIe link.
		for s := 0; s < 2; s++ {
			e.Go("d2h", func(p *sim.Proc) {
				cs := append(link.Dir(true), pool)
				n.Transfer(p, named("d2h"), size, 0, cs...)
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	agg := 12 * float64(size) / float64(finish)
	approx(t, "aggregate D2H", agg, 264e9, 0.02)
}

func TestConstraintValidation(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	if _, err := n.NewConstraint("bad", 0); err == nil {
		t.Error("zero capacity should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustConstraint should panic on invalid capacity")
		}
	}()
	n.MustConstraint("bad", -1)
}

// Regression: a fast transfer issued after a very long virtual time must
// still complete even though its duration is below the clock's floating
// point resolution at that magnitude (the sub-resolution drain path).
func TestTinyTransferAfterLongHold(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 200*units.GBps)
	var done bool
	e.Go("late", func(p *sim.Proc) {
		p.Hold(1e9)                           // ~31 virtual years: ulp(1e9 s) ≈ 1.2e-7 s
		n.Transfer(p, named("tiny"), 8, 0, c) // 8 bytes: 4e-11 s << ulp
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("sub-resolution transfer never completed")
	}
}

// Work conservation: total bytes delivered equals the sum of flow sizes,
// and a pipe is never driven above capacity — checked by comparing the
// makespan of k equal flows to k×(size/capacity).
func TestWorkConservation(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7} {
		e := sim.NewEngine()
		n := NewNetwork(e)
		c := n.MustConstraint("pipe", 1000)
		var finish units.Seconds
		for i := 0; i < k; i++ {
			e.Go("f", func(p *sim.Proc) {
				n.Transfer(p, named("f"), 500, 0, c)
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := float64(k) * 0.5
		approx(t, "makespan", float64(finish), want, 1e-6)
	}
}

func TestStartNonBlocking(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	// Zero-size, zero-latency start completes immediately.
	f0 := n.StartBound(named("instant"), "", 0, 0, c)
	if !f0.finished {
		t.Error("zero flow should be finished")
	}
	// Latency-only flow (no bytes) completes after the delay.
	fl := n.StartBound(named("latency-only"), "", 0, 2, c)
	var done units.Seconds
	e.Go("waiter", func(p *sim.Proc) {
		fl.Wait(p)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Errorf("latency-only flow completed at %v, want 2", done)
	}
	// Waiting on an already finished flow returns immediately.
	e2 := sim.NewEngine()
	n2 := NewNetwork(e2)
	c2 := n2.MustConstraint("pipe", 100)
	f2 := n2.StartBound(named("quick"), "", 100, 0, c2)
	e2.Go("late", func(p *sim.Proc) {
		p.Hold(10) // flow done at t=1
		f2.Wait(p)
		if p.Now() != 10 {
			t.Errorf("late wait advanced clock to %v", p.Now())
		}
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStartWithLatencyAndBytes(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 100)
	f := n.StartBound(named("both"), "", 300, 2, c)
	var done units.Seconds
	e.Go("w", func(p *sim.Proc) {
		f.Wait(p)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 s latency + 3 s wire time.
	approx(t, "latency+bytes flow", float64(done), 5.0, 1e-6)
}

func TestLinkDefaultDuplex(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	l := NewLink(n, "x", 100, 0, 0) // non-positive duplex defaults to 2
	if l.Duplex.capacity != 200 {
		t.Errorf("default duplex capacity = %v, want 200", l.Duplex.capacity)
	}
}

// spanLog records the names and end times of the spans it is handed.
type spanLog struct {
	names []string
	ends  []units.Seconds
}

func (l *spanLog) Span(s obs.Span) {
	l.names = append(l.names, s.Name)
	l.ends = append(l.ends, s.End)
}
func (l *spanLog) Add(string, float64) {}

// Equal flows on one constraint that drain at the same instant finish in
// admission order: their waiters wake, and their spans are recorded, in
// the order the flows entered the network, not in label or waiter order.
// Repeated in-process so an unordered container would show.
func TestSimultaneousCompletionsFinishInAdmissionOrder(t *testing.T) {
	labels := []string{"e", "c", "a", "d", "b"} // admission order
	for run := 0; run < 20; run++ {
		e := sim.NewEngine()
		n := NewNetwork(e)
		log := &spanLog{}
		n.Observe(log)
		c := n.MustConstraint("pipe", 1000)
		flows := make([]*Flow, len(labels))
		for i, l := range labels {
			flows[i] = n.StartBound(named(l), "", 500, 0, c)
		}
		var woke []string
		for i := len(flows) - 1; i >= 0; i-- { // waiters start in reverse
			e.Go("w", func(p *sim.Proc) {
				flows[i].Wait(p)
				woke = append(woke, labels[i])
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := strings.Join(labels, " ")
		if got := strings.Join(woke, " "); got != want {
			t.Fatalf("run %d: waiters woke in order %q, want admission order %q", run, got, want)
		}
		if got := strings.Join(log.names, " "); got != want {
			t.Fatalf("run %d: spans recorded in order %q, want admission order %q", run, got, want)
		}
		for i, end := range log.ends {
			if end != 2.5 { // five flows of 500 B share 1000 B/s
				t.Fatalf("run %d: span %s ends at %v, want all five at 2.5", run, log.names[i], end)
			}
		}
	}
}

// eventCount is a sim.WallProbe that keeps the engine's event count.
type eventCount struct{ events int }

func (c *eventCount) RunStart()         {}
func (c *eventCount) RunEnd(events int) { c.events += events }

// A completion re-armed before it fires is superseded: it runs nothing
// and is not counted as an engine event. Flow a (10 B on a 1 B/s pipe)
// arms its completion for t=10; b joins at t=1, halving a's rate, and
// re-arms for its own finish at t=3; a then re-arms for t=11. The t=10
// arming is the superseded one: seven events run (two process starts,
// b's hold wake, two completions, two waiter wakes), not eight.
func TestSupersededCompletionNotCounted(t *testing.T) {
	e := sim.NewEngine()
	probe := &eventCount{}
	e.SetWallProbe(probe)
	n := NewNetwork(e)
	c := n.MustConstraint("pipe", 1)
	var doneA, doneB units.Seconds
	e.Go("a", func(p *sim.Proc) {
		n.Transfer(p, named("a"), 10, 0, c)
		doneA = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		p.Hold(1)
		n.Transfer(p, named("b"), 1, 0, c)
		doneB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "b finish", float64(doneB), 3, 1e-12)
	approx(t, "a finish", float64(doneA), 11, 1e-12)
	if probe.events != 7 {
		t.Errorf("engine counted %d events, want 7 (the superseded completion not among them)", probe.events)
	}
}

// A warm blocking transfer with one waiter allocates only its Flow: the
// latency hold and the waiter's wake are queued as data, the completion
// signal and its first waiter live inside the flow, and the network
// re-arms one completion timer instead of scheduling a closure.
func TestFlowTransferAllocs(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	cs := []*Constraint{n.MustConstraint("pipe", 1e9)} // a route callers keep, as gpusim's are
	name := named("t")
	const rounds = 200 // amortizes the process that drives them
	run := func() {
		e.Go("xfer", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				n.Transfer(p, name, units.MB, 1e-6, cs...)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the event heap
	if perTransfer := testing.AllocsPerRun(5, run) / rounds; perTransfer > 1.05 {
		t.Errorf("%.2f allocs per transfer, want at most 1 (the Flow)", perTransfer)
	}
}
