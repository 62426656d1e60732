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
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"pvcsim/internal/units"
)

// maxFreeEvents bounds the event free-list so an engine that once burst
// to millions of events does not pin them forever.
const maxFreeEvents = 256

// shrinkMinCap is the heap capacity below which shrinking is never
// attempted; tiny heaps are not worth reallocating.
const shrinkMinCap = 64

// Engine is a discrete-event simulator instance. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now     units.Seconds
	queue   eventHeap
	seq     uint64
	parked  chan struct{}  // a running process hands control back here
	live    int            // processes started and not yet finished
	blocked map[string]int // blocker label → waiter count, for deadlock diagnostics

	free      []*event // recycled event structs (allocation churn)
	highWater int      // peak heap length, for shrink decisions

	tracer func(t units.Seconds, what string)
	probe  WallProbe // wall-clock self-profiling hooks; nil = disabled
}

// NewEngine returns a ready-to-use simulation engine with the clock at 0.
func NewEngine() *Engine {
	return &Engine{parked: make(chan struct{}), blocked: map[string]int{}}
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Seconds { return e.now }

// SetTracer installs a callback invoked for significant kernel events
// (process start/finish, resource waits). A nil tracer disables tracing.
func (e *Engine) SetTracer(fn func(t units.Seconds, what string)) { e.tracer = fn }

// trace emits a tracer callback at the current time.
func (e *Engine) trace(format string, args ...any) {
	if e.tracer != nil {
		e.tracer(e.now, fmt.Sprintf(format, args...))
	}
}

// event is a scheduled callback.
type event struct {
	t   units.Seconds
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//pvclint:ignore floateq comparator tie-break must be exact: bit-equal timestamps fall through to seq, and a tolerance would destroy the strict weak ordering the heap requires
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Schedule queues fn to run after delay. A negative delay is clamped to
// zero. Events at equal times run in scheduling order. Event structs are
// recycled from the engine's free-list.
func (e *Engine) Schedule(delay units.Seconds, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	var ev *event
	reused := false
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		reused = true
	} else {
		ev = &event{}
	}
	if p := e.probe; p != nil {
		p.EventAlloc(reused)
	}
	ev.t, ev.seq, ev.fn = e.now+delay, e.seq, fn
	heap.Push(&e.queue, ev)
	if len(e.queue) > e.highWater {
		e.highWater = len(e.queue)
	}
}

// pop removes the earliest event, shrinking the heap's backing array once
// it has drained well below its high-water mark.
func (e *Engine) pop() *event {
	ev := heap.Pop(&e.queue).(*event)
	if cap(e.queue) >= shrinkMinCap && len(e.queue) <= cap(e.queue)/4 {
		shrunk := make(eventHeap, len(e.queue), cap(e.queue)/2)
		copy(shrunk, e.queue)
		e.queue = shrunk
		e.highWater = len(e.queue)
		if p := e.probe; p != nil {
			p.HeapShrink()
		}
	}
	return ev
}

// drain runs events in order while the queue is non-empty and, when
// bounded, the next event is no later than deadline.
func (e *Engine) drain(deadline units.Seconds, bounded bool) {
	p := e.probe
	if p != nil {
		p.RunStart()
	}
	n := 0
	for e.queue.Len() > 0 && (!bounded || e.queue[0].t <= deadline) {
		ev := e.pop()
		e.now = ev.t
		ev.fn()
		ev.fn = nil
		if len(e.free) < maxFreeEvents {
			e.free = append(e.free, ev)
		}
		n++
	}
	if p != nil {
		p.RunEnd(n)
	}
}

// Run processes events until the queue drains. It returns an error if
// processes remain blocked with no pending event to wake them (a model
// deadlock), which would otherwise manifest as silently missing results;
// the error names the signals and resources holding the waiters.
func (e *Engine) Run() error {
	e.drain(0, false)
	return e.deadlockErr()
}

// RunUntil processes events with timestamps <= deadline, then stops with
// the clock advanced to at least deadline (idling up to the deadline when
// the queue empties early). Remaining events stay queued; Run or RunUntil
// may be called again. Like Run it returns a deadlock error when live
// processes remain blocked with no event to wake them.
func (e *Engine) RunUntil(deadline units.Seconds) error {
	e.drain(deadline, true)
	if e.now < deadline {
		e.now = deadline
	}
	if e.Pending() > 0 {
		return nil // future events may still wake the blocked
	}
	return e.deadlockErr()
}

// deadlockErr builds the Run error when live processes remain: the total
// plus a sorted breakdown of which signals/resources hold waiters.
func (e *Engine) deadlockErr() error {
	if e.live == 0 {
		return nil
	}
	msg := fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked with empty event queue",
		e.now, e.live)
	if len(e.blocked) > 0 {
		names := make([]string, 0, len(e.blocked))
		for name := range e.blocked {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%d on %s", e.blocked[name], name))
		}
		msg += "; blocked: " + strings.Join(parts, ", ")
	}
	return fmt.Errorf("%s", msg)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.queue.Len() }

// block/unblock maintain the per-blocker waiter counts behind the
// deadlock diagnostics.
func (e *Engine) block(label string) { e.blocked[label]++ }
func (e *Engine) unblock(label string) {
	if e.blocked[label]--; e.blocked[label] <= 0 {
		delete(e.blocked, label)
	}
}

// Proc is a cooperative simulation process. Its methods may only be called
// from within the process's own body function.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   chan struct{}
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.eng.now }

// Go starts body as a new process at the current virtual time. The body
// runs cooperatively: it executes until it blocks in Hold, Wait, or
// Acquire, at which point control returns to the engine.
func (e *Engine) Go(name string, body func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{}), done: make(chan struct{})}
	e.live++
	e.Schedule(0, func() {
		e.trace("start %s", name)
		go func() {
			body(p)
			e.live--
			e.trace("finish %s", name)
			close(p.done)
			e.parked <- struct{}{}
		}()
		<-e.parked
	})
	return p
}

// yield transfers control from the process back to the engine and blocks
// until the engine resumes this process.
func (p *Proc) yield() {
	p.eng.parked <- struct{}{}
	<-p.resume
}

// wake resumes p from an event callback and waits for it to park again.
func (p *Proc) wake() {
	p.resume <- struct{}{}
	<-p.eng.parked
}

// Hold suspends the process for d of virtual time.
func (p *Proc) Hold(d units.Seconds) {
	p.eng.Schedule(d, p.wake)
	p.yield()
}

// Done returns a channel closed when the process body has returned. It is
// intended for host-side code inspecting a finished simulation, not for
// use inside processes.
func (p *Proc) Done() <-chan struct{} { return p.done }

// Signal is a broadcast condition: processes Wait on it, and Fire wakes
// every current waiter at the time Fire is called. Later waiters need a
// later Fire. Fire may be called from process bodies or event callbacks.
type Signal struct {
	eng     *Engine
	name    string
	waiters []*Proc
}

// NewSignal creates an unnamed signal.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// NewNamedSignal creates a signal whose name identifies it in deadlock
// diagnostics ("blocked: 2 on signal halo-ready").
func NewNamedSignal(e *Engine, name string) *Signal { return &Signal{eng: e, name: name} }

// blockerLabel names the signal in deadlock diagnostics.
func (s *Signal) blockerLabel() string {
	if s.name == "" {
		return "signal (unnamed)"
	}
	return "signal " + s.name
}

// Wait blocks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	s.eng.block(s.blockerLabel())
	p.yield()
}

// Fire schedules a wake-up, at the current time, for every process
// currently waiting.
func (s *Signal) Fire() {
	woken := s.waiters
	s.waiters = nil
	for _, p := range woken {
		s.eng.unblock(s.blockerLabel())
		s.eng.Schedule(0, p.wake)
	}
}

// Waiting reports the number of processes currently blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

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
	r.eng.block(r.blockerLabel())
	r.eng.trace("wait %s on %s (%d queued)", p.name, r.name, len(r.queue))
	p.yield()
	// When woken, the unit has already been transferred to us by Release.
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	return false
}

// Release frees one unit. If processes are queued, ownership passes
// directly to the queue head, preserving FIFO fairness.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if len(r.queue) > 0 {
		head := r.queue[0]
		r.queue = r.queue[1:]
		r.eng.unblock(r.blockerLabel())
		r.eng.Schedule(0, head.wake)
		return // unit transferred, inUse unchanged
	}
	r.inUse--
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

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
