// Package sim provides the deterministic discrete-event simulation kernel
// underlying pvcsim. It supplies a virtual clock, an event queue with
// stable FIFO tie-breaking, lightweight cooperative processes implemented
// on goroutines (only one process ever runs at a time, so models need no
// locking), condition signals, counting resources with FIFO queueing, and
// re-armable timers.
//
// The kernel is deliberately small and serial: one event heap drained in
// (time, scheduling order). An event either starts or resumes a process,
// or runs a callback. Control passes between goroutines by one rule: a
// process that blocks pops the next event itself, and if that event wakes
// or starts a process, hands control straight to it (one goroutine
// switch), or simply carries on when the event wakes the blocking process
// itself. Callbacks always run on Run's goroutine, so a process that
// meets a callback, an empty queue or a fault, and a process that
// finishes, hands control back there. Bandwidth-sharing pipes, devices,
// and interconnects are built on top of it in the fabric and gpusim
// packages; parallelism lives one level up, across independent cells
// (runner -jobs).
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
	now      units.Seconds
	queue    []event // binary min-heap on (t, seq)
	seq      uint64
	parked   chan struct{} // a process hands control back to Run's goroutine here
	procs    []*Proc       // processes started and not yet finished, any order
	fault    *ProcPanic    // a process body's panic, re-raised by Run
	stopping bool          // set while Run unwinds the live processes
	events   int           // events dispatched by the current Run, on any goroutine

	probe WallProbe // wall-clock self-profiling hooks; nil = disabled
}

// NewEngine returns a ready-to-use simulation engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{parked: make(chan struct{})}
}

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
// number, which it returns.
func (e *Engine) push(delay units.Seconds, ev event) uint64 {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev.t, ev.seq = e.now+delay, e.seq
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
	return ev.seq
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed, so a drained heap holds no handler or process.
func (e *Engine) pop() event {
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

// peek drops superseded timer armings from the head of the queue and
// returns the next live event, or nil when the queue is empty. The clock
// still passes a dropped arming's time, but it runs nothing and is not
// counted as an event.
func (e *Engine) peek() *event {
	for len(e.queue) > 0 {
		top := &e.queue[0]
		if a, ok := top.h.(arming); !ok || a.seq == top.seq {
			return top
		}
		e.now = e.pop().t
	}
	return nil
}

// next pops the event peek returned, advancing the clock to it.
func (e *Engine) next() event {
	ev := e.pop()
	e.now = ev.t
	e.events++
	return ev
}

// dispatch runs events in order until the queue is empty or a process
// body panics. Callbacks run here; a process event hands control to the
// process, and the loop waits until some process hands it back.
func (e *Engine) dispatch() {
	for e.fault == nil && e.peek() != nil {
		ev := e.next()
		if ev.p == nil {
			ev.h.Handle()
			continue
		}
		e.resume(ev.p)
		<-e.parked
	}
}

// Run processes events until the queue drains. It returns an error if
// processes remain blocked with no pending event to wake them (a model
// deadlock), which would otherwise manifest as silently missing results;
// the error names the signals and resources holding the waiters. A panic
// in a process body stops the run and is re-raised here, on the caller's
// goroutine, as a *ProcPanic; a panic in a callback, which runs on the
// caller's goroutine, propagates with its own value. Either way the
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

// stop unwinds every live process: each is resumed with the stopping
// flag set, so its yield panics stopProc, which the process root
// recovers. Events left queued are dropped, since the processes they
// would resume are gone.
func (e *Engine) stop() {
	if len(e.procs) == 0 && len(e.queue) == 0 {
		return
	}
	e.stopping = true
	for len(e.procs) > 0 {
		e.procs[len(e.procs)-1].resume <- struct{}{}
		<-e.parked
	}
	e.stopping = false
	clear(e.queue)
	e.queue = e.queue[:0]
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
	resume    chan struct{}
	body      func(*Proc) // set until the start event launches the goroutine
	idx       int         // position in eng.procs while live
	blockedOn blocker     // set while queued on a signal or resource
}

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.eng.now }

// Go starts body as a new process at the current virtual time. The body
// runs cooperatively: it executes until it blocks in Hold, Wait, or
// Acquire, at which point control passes to the next event.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), body: body}
	e.wake(p, 0)
	return p
}

// wake queues an event that resumes p (or starts it, if it has not run
// yet) after delay.
func (e *Engine) wake(p *Proc, delay units.Seconds) { e.push(delay, event{p: p}) }

// resume gives control to p: the first time it launches the process's
// goroutine, later it unblocks the process's yield. The caller must
// block right after, until control comes back to it.
func (e *Engine) resume(p *Proc) {
	body := p.body
	if body == nil {
		p.resume <- struct{}{}
		return
	}
	p.body = nil
	p.idx = len(e.procs)
	e.procs = append(e.procs, p)
	go p.run(body)
}

// run is the process goroutine's root. However the body ends — it
// returns, it panics, or Run stops it — the process leaves the live set
// and hands control back to Run's goroutine. A panic is kept for Run to
// re-raise on its caller's goroutine; one raised while Run stops the
// process (stopProc, or a deferred call failing on the way out) is
// dropped with the run.
func (p *Proc) run(body func(*Proc)) {
	e := p.eng
	defer func() {
		if v := recover(); v != nil && !e.stopping {
			e.fault = &ProcPanic{Proc: p.name, Value: v, Stack: debug.Stack()}
		}
		e.retire(p)
		e.parked <- struct{}{}
	}()
	body(p)
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

// yield blocks the process until an event resumes it. It dispatches that
// event itself when it can: a wake of p returns at once, with no switch;
// a wake or start of another process hands control straight to it.
// Anything else — a callback, an empty queue — goes back to Run's
// goroutine. A process resumed to be stopped unwinds from here, and so
// does one that blocks again while being stopped (from a deferred call).
func (p *Proc) yield() {
	e := p.eng
	if e.stopping {
		panic(stopProc{})
	}
	if ev := e.peek(); ev != nil && ev.p != nil {
		next := e.next().p
		if next == p {
			return
		}
		e.resume(next)
	} else {
		e.parked <- struct{}{}
	}
	<-p.resume
	if e.stopping {
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
// one by value.
type Signal struct {
	// Label names the signal in deadlock diagnostics ("blocked: 2 on
	// signal halo-ready"). Its String is called only when a deadlock is
	// reported, so a hot-path owner can pass itself instead of
	// formatting a name no one may read. Nil reports "signal (unnamed)".
	Label  fmt.Stringer
	inline [2]*Proc // the first two current waiters, in Wait order
	more   []*Proc  // the later ones
}

// NewNamedSignal creates a signal whose name identifies it in deadlock
// diagnostics.
func NewNamedSignal(name string) *Signal {
	return &Signal{Label: fixedName(name)}
}

// fixedName is a signal name known at construction.
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
// whose predecessors did nothing.
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
	name  string
}

// NewResource creates a resource with the given capacity (min 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{eng: e, cap: capacity, name: name}
}

// blockerLabel names the resource in deadlock diagnostics.
func (r *Resource) blockerLabel() string { return "resource " + r.name }

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
		panic("sim: Release of idle resource " + r.name)
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

// Barrier makes n processes rendezvous: each calls Arrive and blocks until
// all n have arrived, at which point all are released at the same virtual
// time. It is reusable across generations, matching MPI_Barrier semantics
// in the mpirt package.
type Barrier struct {
	n       int
	arrived int
	sig     Signal
}

// NewBarrier creates a barrier for n participants (min 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{n: n, sig: Signal{Label: fixedName("barrier")}}
}

// Arrive blocks until all participants of the current generation arrive.
func (b *Barrier) Arrive(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.sig.Fire()
		return
	}
	b.sig.Wait(p)
}
