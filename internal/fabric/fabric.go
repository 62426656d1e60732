// Package fabric models interconnects (PCIe, stack-to-stack MDFI, Xe-Link,
// NVLink, Infinity Fabric) as fluid-flow pipes on the simulation engine.
//
// A transfer is a flow that traverses one or more Constraints (bandwidth
// capacities). Concurrent flows on a constraint share it equally
// (processor sharing), and a flow's rate is the minimum share across its
// constraints. This single mechanism reproduces the paper's PCIe
// observations: per-direction link capacity, a sub-2× duplex constraint
// ("we observe only 1.4x bandwidth for bi- vs uni-directional"), and a
// host-side aggregate pool that makes full-node D2H scale at only 40%
// ("suggesting some contention on the host side").
package fabric

import (
	"fmt"
	"math"

	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// Constraint is one bandwidth capacity shared by the flows crossing it.
type Constraint struct {
	capacity float64 // bytes per second
	active   int     // flows currently crossing
}

// Flow is one in-flight transfer.
type Flow struct {
	net       *Network
	name      func() string // formats the flow's label; called only when it is read
	bound     string        // binding-resource tag carried onto the recorded span
	remaining float64
	rate      float64
	cs        []*Constraint
	done      sim.Signal // fires when the flow completes; labelled by the flow
	finished  bool
	size      float64       // total bytes, for the recorded span
	start     units.Seconds // when the flow entered the network
}

// String is the flow's label in deadlock diagnostics ("flow h2d:0.0").
// It formats the name, so only cold paths call it.
func (f *Flow) String() string { return "flow " + f.name() }

// Network manages flows over a set of constraints on one engine.
type Network struct {
	eng *sim.Engine
	// flows holds the active flows in admission order: simultaneous
	// completions finish in this order, so their signals fire, their
	// waiters wake and their spans record identically run to run.
	flows []*Flow
	lastT units.Seconds
	// next is the soonest pending flow completion, re-armed by every
	// rate pass.
	next *sim.Timer
	// settling is set while admissions made at the current instant
	// await its end-of-instant rate pass; an eager pass clears it.
	settling bool
	// passes and armings count the rate passes and completion armings
	// made so far; tests pin what a burst of admissions costs by them.
	passes, armings int
	epsilon         float64
	obs             obs.Recorder
}

// Observe attaches a recorder; every completed flow is emitted as a
// span and admitted flows are counted (fabric.flows, fabric.bytes).
func (n *Network) Observe(r obs.Recorder) { n.obs = r }

// admit registers a flow with the network at the end of the admission
// order, stamping its entry time.
func (n *Network) admit(f *Flow) {
	f.start = n.eng.Now()
	for _, c := range f.cs {
		c.active++
	}
	n.flows = append(n.flows, f)
	obs.Count(n.obs, "fabric.flows", 1)
	obs.Count(n.obs, "fabric.bytes", f.size)
}

// NewNetwork creates a flow network bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	n := &Network{eng: eng, epsilon: 1e-6}
	n.next = sim.NewTimer(eng, n.complete)
	return n
}

// complete runs when the soonest completion is due: it drains the
// finished flows and re-arms for the next one.
func (n *Network) complete() {
	n.advance()
	n.reschedule(false)
}

// NewConstraint registers a capacity. Non-positive capacities are
// rejected.
func (n *Network) NewConstraint(cap units.ByteRate) (*Constraint, error) {
	c, err := constraint(cap)
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// constraint is a capacity's constraint value, or the error for a
// non-positive capacity.
func constraint(cap units.ByteRate) (Constraint, error) {
	if cap <= 0 {
		return Constraint{}, fmt.Errorf("fabric: constraint needs positive capacity, got %v", cap)
	}
	return Constraint{capacity: float64(cap)}, nil
}

// MustConstraint is NewConstraint for static topologies where a failure is
// a programming error.
func (n *Network) MustConstraint(cap units.ByteRate) *Constraint {
	c, err := n.NewConstraint(cap)
	if err != nil {
		panic(err)
	}
	return c
}

// Transfer moves size bytes across the constraints, blocking the calling
// process until completion. A positive latency is charged up front (wire
// and software setup time), matching how a single message experiences it.
// name formats the flow's label; it is called only when something reads
// the label (a recorded span or a deadlock diagnostic). cs must not repeat
// a constraint, and the network never modifies it, so callers may pass a
// route slice they keep.
func (n *Network) Transfer(p *sim.Proc, name func() string, size units.Bytes, latency units.Seconds, cs ...*Constraint) {
	if latency > 0 {
		p.Hold(latency)
	}
	if size <= 0 {
		return
	}
	f := new(Flow)
	n.start(f, name, "", size, cs)
	f.Wait(p)
}

// StartBound begins a non-blocking transfer after an optional latency
// delay, filling in f, which the caller holds and waits on with
// Flow.Wait; f must not be a flow still in flight. It is the primitive
// under MPI_Isend-style overlapped communication in the mpirt package,
// whose messages hold their flows, so a message is one allocation. The
// flow's recorded span carries bound, attributing the transfer when no
// enclosing span covers it (the overlapped-communication path, where the
// flow span is the only record of the transfer). name and cs are as for
// Transfer.
func (n *Network) StartBound(f *Flow, name func() string, bound string, size units.Bytes, latency units.Seconds, cs ...*Constraint) {
	if size <= 0 && latency <= 0 {
		*f = Flow{name: name, bound: bound, finished: true}
		return
	}
	if latency > 0 {
		n.initFlow(f, name, bound, size, cs)
		n.eng.Schedule(latency, (*arrival)(f))
		return
	}
	n.start(f, name, bound, size, cs)
}

// arrival is a flow whose latency has elapsed: it enters the network,
// or, carrying no bytes, completes. It is the flow itself queued as an
// event handler, so a delayed start builds no closure.
type arrival Flow

// Handle admits the flow, or completes a latency-only one.
func (a *arrival) Handle() {
	f := (*Flow)(a)
	if f.remaining <= 0 {
		f.finished = true
		f.done.Fire()
		return
	}
	f.net.enter(f)
}

// Wait blocks the process until the flow completes.
func (f *Flow) Wait(p *sim.Proc) {
	if f.finished {
		return
	}
	f.done.Wait(p)
}

// initFlow fills in a flow that has yet to complete. Its completion
// signal is labelled by the flow itself, so deadlock diagnostics can
// report "blocked: 1 on signal flow h2d:0.0" without the name being
// formatted on runs that never deadlock.
func (n *Network) initFlow(f *Flow, name func() string, bound string, size units.Bytes, cs []*Constraint) {
	*f = Flow{net: n, name: name, bound: bound, remaining: float64(size), size: float64(size), cs: cs}
	f.done.Label = f
}

// start fills in f and admits it; flows with no constraints complete
// instantly.
func (n *Network) start(f *Flow, name func() string, bound string, size units.Bytes, cs []*Constraint) {
	if len(cs) == 0 {
		*f = Flow{name: name, bound: bound, remaining: float64(size), size: float64(size), finished: true}
		return
	}
	n.initFlow(f, name, bound, size, cs)
	n.enter(f)
}

// enter admits f at the current instant. While no flow can drain at
// this instant, the rate pass waits for the instant's end: f is only
// counted onto its constraints, and reserves the sequence number its
// completion arming would take now, so one pass settles every admission
// of the instant and arms exactly where the last one's pass would have.
// That is exact: no time passes within the instant, and an admission
// only lowers the other flows' shares, so none of them can drain before
// the pass. A flow that would drain at once, or an admission that finds
// a drained flow, takes the eager pass, which settles everything.
func (n *Network) enter(f *Flow) {
	lasting := n.advance()
	n.admit(f)
	if !lasting || !n.outlasts(f, f.share(), n.resolution()) {
		n.reschedule(false)
		return
	}
	n.next.Reserve()
	if !n.settling {
		n.settling = true
		n.eng.AtInstantEnd((*settle)(n))
	}
}

// settle is the network as its end-of-instant callback.
type settle Network

// Handle runs the instant's deferred rate pass, unless an eager pass
// has settled the instant since.
func (s *settle) Handle() {
	if n := (*Network)(s); n.settling {
		n.reschedule(true)
	}
}

// share is the flow's equal-share rate: the least, over its
// constraints, of capacity divided by the flows crossing.
func (f *Flow) share() float64 {
	rate := math.Inf(1)
	for _, c := range f.cs {
		if s := c.capacity / float64(c.active); s < rate {
			rate = s
		}
	}
	return rate
}

// outlasts reports whether f, moving at rate, neither drains now nor
// finishes within one step of the virtual clock: more than epsilon bytes
// remain, and they take at least the clock's resolution.
func (n *Network) outlasts(f *Flow, rate, resolution float64) bool {
	return f.remaining > n.epsilon && f.remaining/rate >= resolution
}

// resolution is the step of the virtual clock's floating-point grid at
// the current time. A completion sooner than that could not advance the
// clock.
func (n *Network) resolution() float64 {
	//pvclint:ignore timeunit math.Nextafter probes the raw float grid of the clock; units.Seconds has no epsilon
	now := float64(n.eng.Now())
	return math.Nextafter(now, math.Inf(1)) - now
}

// advance progresses all active flows to the current time at their
// previously computed rates. It reports whether every flow outlasts the
// current instant; at an instant already reached, the pass or the
// admission that reached it made sure of that.
func (n *Network) advance() bool {
	now := n.eng.Now()
	//pvclint:ignore timeunit the fluid integrator multiplies seconds by bytes/second; the product leaves the time domain
	dt := float64(now - n.lastT)
	n.lastT = now
	if dt <= 0 {
		return true
	}
	lasting, resolution := true, n.resolution()
	for _, f := range n.flows {
		f.remaining -= float64(f.rate * dt)
		if f.remaining < 0 {
			f.remaining = 0
		}
		if lasting && !n.outlasts(f, f.rate, resolution) {
			lasting = false
		}
	}
	return lasting
}

// reschedule recomputes fair-share rates, completes any drained flows,
// and re-arms the completion timer for the soonest finish, under the
// number the instant's admissions reserved when reserved is set; the
// arming it replaces, still queued, runs nothing. Completions whose
// remaining time is below the virtual clock's floating-point resolution
// (which happens when microsecond transfers follow hour-long kernels)
// are drained immediately — otherwise the timer could not advance the
// clock and the network would spin forever.
func (n *Network) reschedule(reserved bool) {
	n.settling = false
	for {
		// Complete drained flows first (may cascade: their departure
		// frees bandwidth for the rest, handled by the rate recompute).
		// The survivors keep their admission order.
		live := n.flows[:0]
		for _, f := range n.flows {
			if f.remaining <= n.epsilon {
				n.finish(f)
			} else {
				live = append(live, f)
			}
		}
		clear(n.flows[len(live):])
		n.flows = live
		if len(n.flows) == 0 {
			return
		}
		// Equal-share rates: share of each constraint divided by its
		// current flow count; a flow runs at its minimum share.
		n.passes++
		soonest := math.Inf(1)
		for _, f := range n.flows {
			rate := f.share()
			f.rate = rate
			if rate > 0 {
				if t := f.remaining / rate; t < soonest {
					soonest = t
				}
			}
		}
		if math.IsInf(soonest, 1) {
			return
		}
		resolution := n.resolution()
		if soonest >= resolution {
			n.armings++
			if reserved {
				n.next.ArmReserved(units.Seconds(soonest))
			} else {
				n.next.Arm(units.Seconds(soonest))
			}
			return
		}
		// Sub-resolution completions: drain them in place and loop.
		for _, f := range n.flows {
			if f.rate > 0 && f.remaining/f.rate < resolution {
				f.remaining = 0
			}
		}
	}
}

// finish completes an admitted flow; the caller removes it from n.flows.
func (n *Network) finish(f *Flow) {
	f.finished = true
	f.rate = 0
	for _, c := range f.cs {
		c.active--
	}
	if n.obs != nil {
		n.obs.Span(obs.Span{
			Name: f.name(), Cat: "flow", GPU: -1, Stack: -1,
			Start: f.start, End: n.eng.Now(), Bytes: units.Bytes(f.size),
			Bound: f.bound,
		})
	}
	f.done.Fire()
}

// Link bundles the directed pipes and shared duplex constraint of one
// physical interconnect port, built from a hw.LinkSpec. Transfers in one
// direction see the per-direction sustained capacity; simultaneous
// opposite-direction transfers are additionally limited by the duplex
// constraint (DuplexFactor × sustained).
type Link struct {
	Fwd     *Constraint // e.g. host-to-device
	Rev     *Constraint // e.g. device-to-host
	Duplex  *Constraint
	Latency units.Seconds

	cs       [3]Constraint  // what Fwd, Rev and Duplex point at
	fwd, rev [2]*Constraint // Dir's two constraint sets
}

// NewLink constructs the pipes for one port as one block: the link
// holds its three constraints and both direction sets. A non-positive
// capacity panics with NewConstraint's error, as for MustConstraint.
func NewLink(n *Network, sustained units.ByteRate, duplexFactor float64, latency units.Seconds) *Link {
	if duplexFactor <= 0 {
		duplexFactor = 2
	}
	l := &Link{Latency: latency}
	for i, cap := range [3]units.ByteRate{sustained, sustained, units.ByteRate(float64(sustained) * duplexFactor)} {
		c, err := constraint(cap)
		if err != nil {
			panic(err)
		}
		l.cs[i] = c
	}
	l.Fwd, l.Rev, l.Duplex = &l.cs[0], &l.cs[1], &l.cs[2]
	l.fwd = [2]*Constraint{l.Fwd, l.Duplex}
	l.rev = [2]*Constraint{l.Rev, l.Duplex}
	return l
}

// Dir selects the constraint set for one direction of the link: the
// directional pipe plus the shared duplex cap. The slice is the link's
// own: callers must not modify it, and a route that extends it must copy
// it first (appending to it already copies, as its capacity is full).
func (l *Link) Dir(reverse bool) []*Constraint {
	if reverse {
		return l.rev[:]
	}
	return l.fwd[:]
}
