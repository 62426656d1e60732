package fabric

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// startEager is the oracle for the settle: every admission takes its own
// rate pass at once, armed under a fresh sequence number, as every
// admission did before a rate pass could wait for the end of its
// instant.
func (n *Network) startEager(f *Flow, name func() string, size units.Bytes, latency units.Seconds, cs []*Constraint) {
	n.initFlow(f, name, "", size, cs)
	if latency > 0 {
		n.eng.Schedule(latency, (*eagerArrival)(f))
		return
	}
	f.enterEager()
}

// eagerArrival is a latency-delayed flow entering under the oracle.
type eagerArrival Flow

func (a *eagerArrival) Handle() { (*Flow)(a).enterEager() }

func (f *Flow) enterEager() {
	n := f.net
	n.advance()
	n.admit(f)
	n.reschedule(false)
}

// burstLog is one run of a burst scenario, as text: every probe of the
// active flows' rates and remaining bytes, every completion span, and
// every wake of a flow's waiter or of a marker callback, each with its
// virtual time at full precision. The order of the lines is the order
// the engine ran them in, so two runs that queue the same events under
// different (time, sequence) keys produce different logs.
type burstLog struct{ lines []string }

func (l *burstLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func bits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (l *burstLog) Span(s obs.Span) {
	l.add("span %s %s..%s", s.Name, bits(float64(s.Start)), bits(float64(s.End)))
}
func (l *burstLog) Add(string, float64) {}

// runBursts drives one random scenario, seeded, on a fresh network:
// flows admitted in bursts at a few shared instants, by processes and
// by callbacks, some after a latency that lands them on another burst,
// on random constraint graphs, with sizes that make completions fall on
// the same instants as admissions, tiny flows that drain at once or
// within one tick of the clock, and marker callbacks that land on
// completion instants.
func runBursts(t *testing.T, seed int64, eager bool) []string {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine()
	n := NewNetwork(e)
	log := &burstLog{}
	n.Observe(log)
	caps := []units.ByteRate{100, 200, 400, 1e10}
	var cons []*Constraint
	for k := 1 + rng.Intn(4); k > 0; k-- {
		cons = append(cons, n.MustConstraint(caps[rng.Intn(len(caps))]))
	}
	instants := []units.Seconds{0, 0.25, 1, 2, 2.5}
	sizes := []units.Bytes{25, 50, 100, 150, 200, 400, 1e-7, 2e-6}
	start := func(id int, latency units.Seconds) {
		var cs []*Constraint
		for _, i := range rng.Perm(len(cons))[:1+rng.Intn(len(cons))] {
			cs = append(cs, cons[i])
		}
		size := sizes[rng.Intn(len(sizes))]
		label := "f" + strconv.Itoa(id)
		name := func() string { return label }
		f := new(Flow)
		if eager {
			n.startEager(f, name, size, latency, cs)
		} else {
			n.StartBound(f, name, "", size, latency, cs...)
		}
		e.Go("wait-"+label, func(p *sim.Proc) {
			f.Wait(p)
			log.add("woke %s at %s", label, bits(float64(p.Now())))
		})
		d := units.Seconds(rng.Intn(5)) / 4
		e.Schedule(d, sim.Func(func() { log.add("marker %s+%s at %s", label, bits(float64(d)), bits(float64(e.Now()))) }))
	}
	flows := 1 + rng.Intn(14)
	for id := 0; id < flows; id++ {
		at := instants[rng.Intn(len(instants))]
		latency := []units.Seconds{0, 0, 0.75, 1}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			e.Go("p", func(p *sim.Proc) {
				p.Hold(at)
				start(id, latency)
			})
		} else {
			e.Schedule(at, sim.Func(func() { start(id, latency) }))
		}
	}
	// The probe reads the rates between admissions: within an instant
	// that admits a flow, its rates are not yet due.
	e.Go("probe", func(p *sim.Proc) {
		for _, at := range []units.Seconds{0.125, 0.5, 1.5, 2.25, 3.125, 4, 6} {
			p.Hold(at - p.Now())
			for _, f := range n.flows {
				log.add("probe at %s: %s rate %s remaining %s", bits(float64(p.Now())), f.name(), bits(f.rate), bits(f.remaining))
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log.lines
}

// Property: settling once per instant is exact. On random same-instant
// bursts of admissions and departures, the network gives bit-identical
// rates, remaining bytes, finish times and completion order, and the
// same interleaving of completions with every other event, as the
// oracle that takes a rate pass per admission.
func TestSettleMatchesEagerOracle(t *testing.T) {
	woke := 0
	f := func(seed int64) bool {
		got, want := runBursts(t, seed, false), runBursts(t, seed, true)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Logf("seed %d: line %d is %q, the eager oracle's is %q", seed, i, got[i], want[i])
				return false
			}
		}
		if len(got) != len(want) {
			t.Logf("seed %d: %d lines, the eager oracle has %d", seed, len(got), len(want))
			return false
		}
		woke += strings.Count(strings.Join(got, "\n"), "woke")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if woke == 0 {
		t.Error("no scenario completed a flow")
	}
}

// n flows arriving at one instant cost one rate pass and one completion
// arming, where a pass per admission cost n of each: on a fresh network
// at t=0, and at a later instant, admitted by processes and by latency
// callbacks, while earlier flows are still in flight.
func TestSettleOncePerInstant(t *testing.T) {
	const burst = 8
	e := sim.NewEngine()
	n := NewNetwork(e)
	shared := n.MustConstraint(1000)
	type count struct{ passes, armings int }
	at := map[units.Seconds]count{}
	snap := func(p *sim.Proc) { at[p.Now()] = count{n.passes, n.armings} }
	e.Go("probe", func(p *sim.Proc) {
		snap(p) // before t=0's burst: the probe starts first
		p.Hold(0.5)
		snap(p)
		p.Hold(1)
		snap(p)
	})
	for i := 0; i < burst; i++ {
		own := n.MustConstraint(units.ByteRate(100 * (i + 1)))
		e.Go("early", func(p *sim.Proc) { n.Transfer(p, named("early"), 4000, 0, shared, own) })
		if i%2 == 0 {
			e.Go("late", func(p *sim.Proc) {
				p.Hold(1)
				n.Transfer(p, named("late"), 4000, 0, shared, own)
			})
		} else {
			n.StartBound(new(Flow), named("late"), "", 4000, 1, shared, own)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ burst, before, after units.Seconds }{{0, 0, 0.5}, {1, 0.5, 1.5}} {
		before, after := at[w.before], at[w.after]
		if p, a := after.passes-before.passes, after.armings-before.armings; p != 1 || a != 1 {
			t.Errorf("%d flows arriving at t=%v took %d rate passes and %d completion armings, want 1 and 1", burst, w.burst, p, a)
		}
	}
}
