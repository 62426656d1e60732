// Package sim provides the deterministic discrete-event simulation kernel
// underlying pvcsim. It supplies a virtual clock, an event queue with
// stable FIFO tie-breaking, lightweight cooperative processes implemented
// on goroutines (only one process ever runs at a time, so models need no
// locking), condition signals, and counting resources with FIFO queueing.
//
// The kernel is deliberately small and serial: one event heap drained in
// (time, scheduling order) by Run. Bandwidth-sharing pipes, devices, and
// interconnects are built on top of it in the fabric and gpusim packages;
// parallelism lives one level up, across independent cells (runner -jobs).
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
	parked   chan struct{} // a running process hands control back here
	procs    []*Proc       // processes started and not yet finished, any order
	fault    *ProcPanic    // a process body's panic, re-raised by Run
	stopping bool          // set while Run unwinds the live processes

	probe WallProbe // wall-clock self-profiling hooks; nil = disabled
}

// NewEngine returns a ready-to-use simulation engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// event is a scheduled callback.
type event struct {
	t   units.Seconds
	seq uint64
	fn  func()
}

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	//pvclint:ignore floateq comparator tie-break must be exact: bit-equal timestamps fall through to seq, and a tolerance would destroy the strict weak ordering the heap requires
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Schedule queues fn to run after delay. A negative delay is clamped to
// zero. Events at equal times run in scheduling order.
func (e *Engine) Schedule(delay units.Seconds, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := event{t: e.now + delay, seq: e.seq, fn: fn}
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

// pop removes and returns the earliest event. The vacated slot is
// zeroed, so a drained heap holds no closure.
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

// drain runs events in order until the queue is empty or a process
// body panics.
func (e *Engine) drain() {
	p := e.probe
	if p != nil {
		p.RunStart()
	}
	n := 0
	for len(e.queue) > 0 && e.fault == nil {
		ev := e.pop()
		e.now = ev.t
		ev.fn()
		n++
	}
	if p != nil {
		p.RunEnd(n)
	}
}

// Run processes events until the queue drains. It returns an error if
// processes remain blocked with no pending event to wake them (a model
// deadlock), which would otherwise manifest as silently missing results;
// the error names the signals and resources holding the waiters. A panic
// in a process body stops the run and is re-raised here, on the caller's
// goroutine, as a *ProcPanic. Either way the processes still alive are
// unwound before Run returns, so none outlives the run.
func (e *Engine) Run() error {
	defer e.stop()
	e.drain()
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
		e.procs[len(e.procs)-1].wake()
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
	wakeFn    func()  // p.wake, bound once so scheduling a wake-up does not allocate
	idx       int     // position in eng.procs while live
	blockedOn blocker // set while queued on a signal or resource
}

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.eng.now }

// Go starts body as a new process at the current virtual time. The body
// runs cooperatively: it executes until it blocks in Hold, Wait, or
// Acquire, at which point control returns to the engine.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	p.wakeFn = p.wake
	e.Schedule(0, func() {
		p.idx = len(e.procs)
		e.procs = append(e.procs, p)
		go p.run(body)
		<-e.parked
	})
	return p
}

// run is the process goroutine's root. However the body ends — it
// returns, it panics, or Run stops it — the process leaves the live set
// and hands control back to the engine. A panic is kept for Run to
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

// yield transfers control from the process back to the engine and blocks
// until the engine resumes this process. A process resumed to be
// stopped unwinds from here.
func (p *Proc) yield() {
	p.eng.parked <- struct{}{}
	<-p.resume
	if p.eng.stopping {
		panic(stopProc{})
	}
}

// wake resumes p from an event callback and waits for it to park again.
func (p *Proc) wake() {
	p.resume <- struct{}{}
	<-p.eng.parked
}

// Hold suspends the process for d of virtual time.
func (p *Proc) Hold(d units.Seconds) {
	p.eng.Schedule(d, p.wakeFn)
	p.yield()
}

// Signal is a broadcast condition: processes Wait on it, and Fire wakes
// every current waiter at the time Fire is called. Later waiters need a
// later Fire. Fire may be called from process bodies or event callbacks.
type Signal struct {
	eng     *Engine
	name    fmt.Stringer // nil for an unnamed signal
	waiters []*Proc
}

// NewNamedSignal creates a signal whose name identifies it in deadlock
// diagnostics ("blocked: 2 on signal halo-ready").
func NewNamedSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, name: fixedName(name)}
}

// NewLabeledSignal creates a signal named by name.String(), which is
// called only when a deadlock diagnostic reports the signal: a hot-path
// owner passes itself instead of formatting a name no one may read.
func NewLabeledSignal(e *Engine, name fmt.Stringer) *Signal { return &Signal{eng: e, name: name} }

// fixedName is a signal name known at construction.
type fixedName string

func (n fixedName) String() string { return string(n) }

// blockerLabel names the signal in deadlock diagnostics.
func (s *Signal) blockerLabel() string {
	if s.name == nil {
		return "signal (unnamed)"
	}
	return "signal " + s.name.String()
}

// Wait blocks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.blockedOn = s
	p.yield()
}

// Fire schedules a wake-up, at the current time, for every process
// currently waiting. The waiter list keeps its backing array for the
// next round of waiters.
func (s *Signal) Fire() {
	for i, p := range s.waiters {
		p.blockedOn = nil
		s.eng.Schedule(0, p.wakeFn)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

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
		r.eng.Schedule(0, head.wakeFn)
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
	sig     *Signal
}

// NewBarrier creates a barrier for n participants (min 1).
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		n = 1
	}
	return &Barrier{n: n, sig: NewNamedSignal(e, "barrier")}
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
