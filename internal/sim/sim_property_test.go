package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pvcsim/internal/units"
)

// Property: events fire in nondecreasing time order regardless of
// scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := NewEngine()
		var fired []units.Seconds
		for _, d := range delaysRaw {
			dd := units.Seconds(d) / 1000
			e.Schedule(dd, Func(func() { fired = append(fired, e.Now()) }))
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with capacity c, at most c holders overlap; total makespan of
// k unit-duration jobs equals ceil(k/c).
func TestResourceCapacityProperty(t *testing.T) {
	f := func(kRaw, cRaw uint8) bool {
		k := int(kRaw%20) + 1
		c := int(cRaw%5) + 1
		e := NewEngine()
		r := NewResource(e, "res", c)
		inUse := 0
		maxInUse := 0
		for i := 0; i < k; i++ {
			e.Go("w", func(p *Proc) {
				r.Acquire(p)
				inUse++
				if inUse > maxInUse {
					maxInUse = inUse
				}
				p.Hold(1)
				inUse--
				r.Release()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		wantMakespan := units.Seconds((k + c - 1) / c)
		return maxInUse <= c && e.Now() == wantMakespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBarrierProperty(t *testing.T) {
	f := func(offsetsRaw []uint8) bool {
		if len(offsetsRaw) == 0 || len(offsetsRaw) > 16 {
			return true
		}
		e := NewEngine()
		b := NewBarrier(len(offsetsRaw))
		latest := units.Seconds(0)
		offsets := make([]units.Seconds, len(offsetsRaw))
		for i, o := range offsetsRaw {
			offsets[i] = units.Seconds(o) / 7
			if offsets[i] > latest {
				latest = offsets[i]
			}
		}
		var releases []units.Seconds
		for _, off := range offsets {
			d := off
			e.Go("r", func(p *Proc) {
				p.Hold(d)
				b.Arrive(p)
				releases = append(releases, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for _, r := range releases {
			if r != latest {
				return false
			}
		}
		return len(releases) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// orderKey is when an action was scheduled to run: its time and its
// place in scheduling order.
type orderKey struct {
	t   units.Seconds
	seq uint64
}

func (a orderKey) before(b orderKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// orderModel drives a random mix of processes and callbacks and keeps,
// beside the engine, its own account of the scheduling order: seq
// advances exactly where the engine queues an event (Go, Hold, a Fire
// per waiter, a Release with a queued head, Schedule, Timer.Arm), and
// every action logs the key it was queued under when it runs.
type orderModel struct {
	e      *Engine
	rng    *rand.Rand
	seq    uint64
	ran    []orderKey
	atTime bool // every action ran at its key's time
	budget int  // callbacks and timer armings left to make

	sig        *Signal
	sigWaiters []*orderProc
	res        *Resource
	resQueue   []*orderProc
	resFree    int
	tm         *Timer
	tmKey      orderKey
	tmPending  bool
	superseded int
}

// orderProc is one process's side of the account: the key its pending
// wake was queued under.
type orderProc struct{ key orderKey }

func (m *orderModel) next(d units.Seconds) orderKey {
	m.seq++
	return orderKey{m.e.Now() + d, m.seq}
}

func (m *orderModel) log(k orderKey) {
	if m.e.Now() != k.t {
		m.atTime = false
	}
	m.ran = append(m.ran, k)
}

func (m *orderModel) delay() units.Seconds { return units.Seconds(m.rng.Intn(3)) / 2 }

// schedule queues a callback that may fire the signal, arm the timer or
// schedule another callback.
func (m *orderModel) schedule() {
	if m.budget <= 0 {
		return
	}
	m.budget--
	d := m.delay()
	k := m.next(d)
	m.e.Schedule(d, Func(func() {
		m.log(k)
		switch m.rng.Intn(3) {
		case 0:
			m.fire()
		case 1:
			m.arm()
		case 2:
			m.schedule()
		}
	}))
}

func (m *orderModel) arm() {
	if m.budget <= 0 {
		return
	}
	m.budget--
	if m.tmPending {
		m.superseded++
	}
	d := m.delay()
	m.tmKey, m.tmPending = m.next(d), true
	m.tm.Arm(d)
}

func (m *orderModel) fire() {
	for _, w := range m.sigWaiters {
		w.key = m.next(0)
	}
	m.sigWaiters = nil
	m.sig.Fire()
}

// body runs a random sequence of blocking and scheduling steps, holding
// the resource across some of them.
func (m *orderModel) body(p *Proc, pr *orderProc, steps int) {
	m.log(pr.key)
	holding := false
	release := func() {
		if len(m.resQueue) > 0 {
			head := m.resQueue[0]
			m.resQueue = m.resQueue[1:]
			head.key = m.next(0)
		} else {
			m.resFree++
		}
		m.res.Release()
		holding = false
	}
	for i := 0; i < steps; i++ {
		switch m.rng.Intn(6) {
		case 0:
			d := m.delay()
			pr.key = m.next(d)
			p.Hold(d)
			m.log(pr.key)
		case 1:
			m.sigWaiters = append(m.sigWaiters, pr)
			m.sig.Wait(p)
			m.log(pr.key)
		case 2:
			m.fire()
		case 3:
			if holding {
				release()
				break
			}
			holding = true
			if m.resFree > 0 {
				m.resFree--
				m.res.Acquire(p)
				break
			}
			m.resQueue = append(m.resQueue, pr)
			m.res.Acquire(p)
			m.log(pr.key)
		case 4:
			m.schedule()
		case 5:
			m.arm()
		}
	}
	if holding {
		release()
	}
}

// Property: however processes (Hold, Signal, Resource) and callbacks
// (Schedule, Timer) interleave, and whichever goroutine dispatches the
// next event, every action runs at its scheduled time and the executed
// sequence is the (time, scheduling order) sequence; every queued action
// runs except superseded timer armings and the wakes of processes still
// blocked when the queue drains.
func TestInterleavedEventOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine()
		m := &orderModel{e: e, rng: rand.New(rand.NewSource(seed)), atTime: true, budget: 12,
			sig: NewNamedSignal("s"), res: NewResource(e, "r", 2), resFree: 2}
		m.tm = NewTimer(e, func() { m.tmPending = false; m.log(m.tmKey) })
		for n := 1 + m.rng.Intn(5); n > 0; n-- {
			pr := &orderProc{key: m.next(0)}
			steps := m.rng.Intn(8)
			e.Go("p", func(p *Proc) { m.body(p, pr, steps) })
		}
		m.schedule()
		_ = e.Run() // a model may deadlock; its blocked processes just never log again
		for i := 1; i < len(m.ran); i++ {
			if !m.ran[i-1].before(m.ran[i]) {
				t.Logf("seed %d: action %d ran at %v after %v", seed, i, m.ran[i], m.ran[i-1])
				return false
			}
		}
		blocked := len(m.sigWaiters) + len(m.resQueue)
		if want := int(m.seq) - m.superseded; len(m.ran) != want || !m.atTime {
			t.Logf("seed %d: %d actions ran (want %d, %d blocked), all at their time: %v", seed, len(m.ran), want, blocked, m.atTime)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
