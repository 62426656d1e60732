// Package sim provides the deterministic discrete-event simulation kernel
// underlying pvcsim. It supplies a virtual clock, an event queue with
// stable FIFO tie-breaking, lightweight cooperative processes (iter.Pull
// coroutines that Run's goroutine drives, so only one process ever runs
// at a time and models need no locking), condition signals, counting
// resources with FIFO queueing, and re-armable timers.
//
// The kernel is deliberately small and serial: events drain in (time,
// scheduling order) from a heap of delayed events and a FIFO of
// zero-delay ones, which need no sift because each carries the newest
// sequence number at the current instant. An event either starts or
// resumes a process, or runs a callback. Whoever holds control runs the
// events it meets: a process that blocks or finishes runs the callbacks
// ahead of it, then names the process the next event wakes or starts
// and yields to Run's goroutine, which resumes that process (two
// coroutine switches, none through the Go scheduler); a process whose
// next event wakes itself carries on with no switch. An empty queue or a
// fault ends the run. Run stops the processes still alive through each
// coroutine's stop function, so none outlives it. An owner can also
// defer work to the end of the current instant (AtInstantEnd), which
// the fabric uses to recompute its rates once per instant.
// Bandwidth-sharing pipes, devices, and interconnects are built on top
// of it in the fabric and gpusim packages; parallelism lives one level
// up, across independent cells (runner -jobs).
package sim

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"

	"pvcsim/internal/units"
)

// Engine is a discrete-event simulator instance. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now   units.Seconds
	queue []event // delayed events: a binary min-heap on (t, seq)
	// fifo holds the zero-delay events from fhead on. Each was queued at
	// the current instant under the newest sequence number, so they are
	// already in (t, seq) order, and the clock cannot pass them.
	fifo     []event
	fhead    int
	atEnd    []Handler // run when the current instant's events are done
	seq      uint64
	after    *Proc   // the process Run's goroutine resumes next, named by the one that yielded
	procs    []*Proc // processes started and not yet finished, any order
	fault    any     // re-raised by Run: a *ProcPanic, or a callback's panic value
	stopping bool    // set while Run unwinds the live processes
	events   int     // events dispatched by the current Run, by Run or any process

	probe WallProbe // wall-clock self-profiling hooks; nil = disabled
}

// NewEngine returns a ready-to-use simulation engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// event is one scheduled action, kept as data: starting or resuming a
// process (p), or running a callback (h).
type event struct {
	t   units.Seconds
	seq uint64
	p   *Proc
	h   Handler
}

// Handler is an event callback. A closure passes as a Func; an owner
// that queues the same kind of callback per operation implements Handle
// on a pointer it already holds, so queueing it allocates nothing.
type Handler interface {
	Handle()
}

// Func adapts a plain function to a Handler.
type Func func()

// Handle calls f.
func (f Func) Handle() { f() }

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	//pvclint:ignore floateq comparator tie-break must be exact: bit-equal timestamps fall through to seq, and a tolerance would destroy the strict weak ordering the heap requires
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Schedule queues h to run after delay. A negative delay is clamped to
// zero. Events at equal times run in scheduling order.
func (e *Engine) Schedule(delay units.Seconds, h Handler) {
	e.push(delay, event{h: h})
}

// push queues ev after delay (clamped to zero) under the next sequence
// number, which it returns. A zero-delay event joins the FIFO: no queued
// event has a later key, so it goes last without a sift.
func (e *Engine) push(delay units.Seconds, ev event) uint64 {
	e.seq++
	ev.seq = e.seq
	if delay <= 0 {
		ev.t = e.now
		if e.fhead > 0 && len(e.fifo) == cap(e.fifo) {
			n := copy(e.fifo, e.fifo[e.fhead:])
			clear(e.fifo[n:])
			e.fifo, e.fhead = e.fifo[:n], 0
		}
		e.fifo = append(e.fifo, ev)
		return ev.seq
	}
	ev.t = e.now + delay
	e.heapPush(ev)
	return ev.seq
}

// heapPush adds ev to the delayed-event heap under the key it carries.
func (e *Engine) heapPush(ev event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(&q[up]) {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = ev
	e.queue = q
}

// fifoFirst reports whether the earliest queued event heads the FIFO.
func (e *Engine) fifoFirst() bool {
	return e.fhead < len(e.fifo) && (len(e.queue) == 0 || e.fifo[e.fhead].before(&e.queue[0]))
}

// head returns the earliest queued event, or nil.
func (e *Engine) head() *event {
	switch {
	case e.fifoFirst():
		return &e.fifo[e.fhead]
	case len(e.queue) > 0:
		return &e.queue[0]
	}
	return nil
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed, so a drained queue holds no handler or process.
func (e *Engine) pop() event {
	if e.fifoFirst() {
		ev := e.fifo[e.fhead]
		e.fifo[e.fhead] = event{}
		if e.fhead++; e.fhead == len(e.fifo) {
			e.fifo, e.fhead = e.fifo[:0], 0
		}
		return ev
	}
	return e.heapPop()
}

// heapPop removes and returns the heap's earliest event.
func (e *Engine) heapPop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.queue = q
	return top
}

// peek returns the next live event, or nil when the queue is empty.
// When the current instant has no event left, it first runs the
// end-of-instant callbacks, which may queue more. It drops superseded
// timer armings from the head of the queue: the clock still passes a
// dropped arming's time, but it runs nothing and is not counted as an
// event.
func (e *Engine) peek() *event {
	for {
		top := e.head()
		if len(e.atEnd) > 0 && (top == nil || top.t > e.now) {
			e.endInstant()
			continue
		}
		if top == nil {
			return nil
		}
		if a, ok := top.h.(arming); !ok || a.seq == top.seq {
			return top
		}
		e.now = e.pop().t
	}
}

// AtInstantEnd runs h once every event queued for the current instant
// has run, before the clock advances. It takes no sequence number and is
// not counted as an event; callbacks registered for one instant run in
// registration order, by whichever process or Run holds control, and
// may queue events of their own.
func (e *Engine) AtInstantEnd(h Handler) { e.atEnd = append(e.atEnd, h) }

// endInstant runs the end-of-instant callbacks, including any they
// register.
func (e *Engine) endInstant() {
	for i := 0; i < len(e.atEnd); i++ {
		e.atEnd[i].Handle()
	}
	clear(e.atEnd)
	e.atEnd = e.atEnd[:0]
}

// next pops the event peek returned, advancing the clock to it.
func (e *Engine) next() event {
	ev := e.pop()
	e.now = ev.t
	e.events++
	return ev
}

// nextProc runs callbacks in order until the next event starts or wakes
// a process, and pops that process. It returns nil when the queue is
// empty or a fault awaits Run.
func (e *Engine) nextProc() *Proc {
	for e.fault == nil && e.peek() != nil {
		ev := e.next()
		if ev.p != nil {
			return ev.p
		}
		ev.h.Handle()
	}
	return nil
}

// handoff is nextProc in a process. A callback that panics there is
// recovered and kept, so Run re-raises it with its own value instead of
// the process unwinding with it.
func (e *Engine) handoff() (next *Proc) {
	defer func() {
		if next == nil {
			if v := recover(); v != nil {
				e.fault = v
			}
		}
	}()
	return e.nextProc()
}

// dispatch runs events in order until the queue is empty or a process
// body or callback panics. A process event resumes the process; when it
// yields, it has run the events up to the next process event and named
// that process, or none when the queue is empty or a fault awaits Run.
func (e *Engine) dispatch() {
	for p := e.nextProc(); p != nil; {
		e.resume(p)
		p, e.after = e.after, nil
	}
}

// Run processes events until the queue drains. It returns an error if
// processes remain blocked with no pending event to wake them (a model
// deadlock), which would otherwise manifest as silently missing results;
// the error names the signals and resources holding the waiters. A panic
// in a process body stops the run and is re-raised here, on the caller's
// goroutine, as a *ProcPanic; a panic in a callback propagates with its
// own value, whether Run or a process ran the callback. Either way the
// processes still alive are unwound before Run returns, so none outlives
// the run.
func (e *Engine) Run() error {
	defer e.stop()
	p := e.probe
	if p != nil {
		p.RunStart()
	}
	e.events = 0
	e.dispatch()
	if p != nil {
		p.RunEnd(e.events)
	}
	if f := e.fault; f != nil {
		e.fault = nil
		panic(f)
	}
	return e.deadlockErr()
}

// stop unwinds every live process through its coroutine's stop
// function: the process's yield returns false, so it panics stopProc,
// which the process root recovers. Events left queued are dropped, since
// the processes they would resume are gone.
func (e *Engine) stop() {
	if len(e.procs) == 0 && len(e.queue) == 0 && len(e.fifo) == 0 && len(e.atEnd) == 0 {
		return
	}
	e.stopping = true
	for len(e.procs) > 0 {
		e.procs[len(e.procs)-1].stop()
	}
	e.stopping = false
	clear(e.queue)
	e.queue = e.queue[:0]
	clear(e.fifo)
	e.fifo, e.fhead = e.fifo[:0], 0
	clear(e.atEnd)
	e.atEnd = e.atEnd[:0]
}

// stopProc is the panic value that unwinds a stopped process.
type stopProc struct{}

// ProcPanic is the value Run re-raises when a process body panics: the
// process's name, the original panic value and the stack where it was
// raised.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

// Error names the process, the panic value and the stack.
func (p *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", p.Proc, p.Value, p.Stack)
}

// deadlockErr builds the Run error when live processes remain: the total
// plus a breakdown, sorted by label, of which signals/resources hold
// waiters. Blocker labels are formatted here and nowhere else, so a run
// that completes never builds one.
func (e *Engine) deadlockErr() error {
	if len(e.procs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked with empty event queue",
		e.now, len(e.procs))
	var labels []string
	for _, p := range e.procs {
		if p.blockedOn != nil {
			labels = append(labels, p.blockedOn.blockerLabel())
		}
	}
	if len(labels) > 0 {
		sort.Strings(labels)
		var parts []string
		for i := 0; i < len(labels); {
			j := i + 1
			for j < len(labels) && labels[j] == labels[i] {
				j++
			}
			parts = append(parts, fmt.Sprintf("%d on %s", j-i, labels[i]))
			i = j
		}
		msg += "; blocked: " + strings.Join(parts, ", ")
	}
	return fmt.Errorf("%s", msg)
}

// blocker is what a waiting process is blocked on: a Signal or a
// Resource, named for deadlock diagnostics.
type blocker interface {
	blockerLabel() string
}

// Proc is a cooperative simulation process. Its methods may only be called
// from within the process's own body function.
type Proc struct {
	eng       *Engine
	name      string
	body      func(*Proc)
	next      func() (struct{}, bool) // continues the coroutine; nil until the start event
	stop      func()                  // unwinds the coroutine from its yield
	suspend   func(struct{}) bool     // the coroutine's yield back to Run's goroutine
	idx       int                     // position in eng.procs while live
	blockedOn blocker                 // set while queued on a signal or resource
}

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.eng.now }

// Go starts body as a new process at the current virtual time. The body
// runs cooperatively: it executes until it blocks in Hold, Wait, or
// Acquire, at which point control passes to the next event.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, body: body}
	e.wake(p, 0)
	return p
}

// wake queues an event that resumes p (or starts it, if it has not run
// yet) after delay.
func (e *Engine) wake(p *Proc, delay units.Seconds) { e.push(delay, event{p: p}) }

// run is the process coroutine's root; suspend is its yield. However
// the body ends — it returns, it panics, or Run stops it — the process
// leaves the live set. A finished process names the next process as a
// blocking one does; after a panic it names none. A panic is kept for
// Run to re-raise on its caller's goroutine; one raised while Run stops
// the process (stopProc, or a deferred call failing on the way out) is
// dropped with the run.
func (p *Proc) run(suspend func(struct{}) bool) {
	e := p.eng
	p.suspend = suspend
	defer func() {
		if v := recover(); v != nil && !e.stopping {
			e.fault = &ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()}
		}
		e.retire(p)
		if !e.stopping {
			e.after = e.handoff()
		}
	}()
	p.body(p)
}

// retire drops a finished process from the live set (swap-remove), so
// the engine retains only processes that can still block.
func (e *Engine) retire(p *Proc) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.idx] = moved
	moved.idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// yield blocks the process until an event resumes it. It runs the
// events ahead itself: callbacks in place, then a wake of p returns at
// once, with no switch. Otherwise it names the process the next event
// wakes or starts (none when the queue is empty or a fault awaits Run)
// and suspends to Run's goroutine, which resumes that process. A process
// stopped from its suspension unwinds from here, and so does one that
// blocks again while being stopped (from a deferred call).
func (p *Proc) yield() {
	e := p.eng
	if e.stopping {
		panic(stopProc{})
	}
	next := e.handoff()
	if next == p {
		return
	}
	e.after = next
	if !p.suspend(struct{}{}) {
		panic(stopProc{})
	}
}

// Hold suspends the process for d of virtual time.
func (p *Proc) Hold(d units.Seconds) {
	p.eng.wake(p, d)
	p.yield()
}

// Signal is a broadcast condition: processes Wait on it, and Fire wakes
// every current waiter at the time Fire is called. Later waiters need a
// later Fire. Fire may be called from process bodies or event callbacks.
// The zero value is an unnamed signal ready to use, so an owner can hold
// one by value and label it with itself.
type Signal struct {
	// Label names the signal in deadlock diagnostics ("blocked: 2 on
	// signal halo-ready"). Its String is called only when a deadlock is
	// reported, so a hot-path owner can pass itself instead of
	// formatting a name no one may read. Nil reports "signal (unnamed)".
	Label  fmt.Stringer
	inline [2]*Proc // the first two current waiters, in Wait order
	more   []*Proc  // the later ones
}

// fixedName is a label known at construction.
type fixedName string

func (n fixedName) String() string { return string(n) }

// blockerLabel names the signal in deadlock diagnostics.
func (s *Signal) blockerLabel() string {
	if s.Label == nil {
		return "signal (unnamed)"
	}
	return "signal " + s.Label.String()
}

// Wait blocks the calling process until the next Fire. The first two
// waiters — a flow's sender and receiver — are stored inline, so they
// cost no allocation.
func (s *Signal) Wait(p *Proc) {
	switch {
	case s.inline[0] == nil:
		s.inline[0] = p
	case s.inline[1] == nil:
		s.inline[1] = p
	default:
		s.more = append(s.more, p)
	}
	p.blockedOn = s
	p.yield()
}

// Fire schedules a wake-up, at the current time, for every process
// currently waiting, in Wait order. The overflow list keeps its backing
// array for the next round of waiters.
func (s *Signal) Fire() {
	for i, p := range s.inline {
		if p != nil {
			s.inline[i] = nil
			p.blockedOn = nil
			p.eng.wake(p, 0)
		}
	}
	for i, p := range s.more {
		p.blockedOn = nil
		p.eng.wake(p, 0)
		s.more[i] = nil
	}
	s.more = s.more[:0]
}

// Timer is a re-armable callback for an owner that keeps at most one
// pending deadline, such as a network's next flow completion. Arm
// supersedes the pending arming: the superseded event stays queued but,
// when its time comes, runs nothing and is not counted as an event.
// Each arming takes the sequence number a fresh Schedule would, so live
// events run in the same order as if every arming were a new Schedule
// whose predecessors did nothing. An owner that settles its deadline
// later in the instant Reserves that number where it would have armed,
// and arms under it with ArmReserved once the deadline is known.
type Timer struct {
	eng *Engine
	fn  func()
	seq uint64 // sequence number of the latest arming
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer { return &Timer{eng: e, fn: fn} }

// Arm schedules the timer to fire after delay (clamped to zero),
// superseding any arming still pending.
func (t *Timer) Arm(delay units.Seconds) {
	t.seq = t.eng.push(delay, event{h: arming{t}})
}

// Reserve supersedes any pending arming, as Arm does, and takes the
// sequence number an Arm would take now, for ArmReserved to use.
func (t *Timer) Reserve() {
	t.eng.seq++
	t.seq = t.eng.seq
}

// ArmReserved schedules the timer to fire after delay under the number
// the latest Reserve took, so it runs exactly where an Arm made at the
// Reserve would have. delay must be positive: the arming joins the
// delayed-event heap, which orders any key.
func (t *Timer) ArmReserved(delay units.Seconds) {
	e := t.eng
	e.heapPush(event{t: e.now + delay, seq: t.seq, h: arming{t}})
}

// arming is one queued firing of a timer; it is live while it is the
// timer's latest.
type arming struct{ *Timer }

// Handle runs the timer's callback.
func (a arming) Handle() { a.fn() }

// Resource is a counting resource (capacity >= 1) with FIFO queueing:
// Acquire blocks until a unit is free, Release frees one and wakes the
// head of the queue. It models exclusive or limited-concurrency hardware
// such as a PCIe controller's DMA engines or a stack's in-order queue.
type Resource struct {
	eng   *Engine
	cap   int
	inUse int
	queue []*Proc
	label fmt.Stringer
}

// NewResource creates a resource with the given capacity (min 1). label
// names it in deadlock diagnostics ("blocked: 3 on resource pcie-dma")
// and is formatted only when one is reported, or on a misuse panic.
func NewResource(e *Engine, label fmt.Stringer, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{eng: e, cap: capacity, label: label}
}

// blockerLabel names the resource in deadlock diagnostics.
func (r *Resource) blockerLabel() string { return "resource " + r.label.String() }

// Acquire obtains one unit, blocking the process in FIFO order if none is
// free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.blockedOn = r
	p.yield()
	// When woken, the unit has already been transferred to us by Release.
}

// Release frees one unit. If processes are queued, ownership passes
// directly to the queue head, preserving FIFO fairness.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.label.String())
	}
	if len(r.queue) > 0 {
		head := r.queue[0]
		r.queue[0] = nil
		r.queue = r.queue[1:]
		head.blockedOn = nil
		r.eng.wake(head, 0)
		return // unit transferred, inUse unchanged
	}
	r.inUse--
}
