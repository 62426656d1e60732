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
	Name     string
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
	// admission and departure.
	next    *sim.Timer
	epsilon float64
	obs     obs.Recorder
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
	n.reschedule()
}

// NewConstraint registers a capacity. Non-positive capacities are
// rejected.
func (n *Network) NewConstraint(name string, cap units.ByteRate) (*Constraint, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("fabric: constraint %q needs positive capacity", name)
	}
	return &Constraint{Name: name, capacity: float64(cap)}, nil
}

// MustConstraint is NewConstraint for static topologies where a failure is
// a programming error.
func (n *Network) MustConstraint(name string, cap units.ByteRate) *Constraint {
	c, err := n.NewConstraint(name, cap)
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
	f := n.start(name, "", size, cs)
	if f.finished {
		return
	}
	f.done.Wait(p)
}

// StartBound begins a non-blocking transfer after an optional latency
// delay and returns its Flow; callers wait on it with Flow.Wait. It is the
// primitive under MPI_Isend-style overlapped communication in the mpirt
// package. The flow's recorded span carries bound, attributing the
// transfer when no enclosing span covers it (the overlapped-communication
// path, where the flow span is the only record of the transfer). name and
// cs are as for Transfer.
func (n *Network) StartBound(name func() string, bound string, size units.Bytes, latency units.Seconds, cs ...*Constraint) *Flow {
	if size <= 0 && latency <= 0 {
		return &Flow{name: name, bound: bound, finished: true}
	}
	if latency > 0 {
		f := n.newFlow(name, bound, size, cs)
		n.eng.Schedule(latency, (*arrival)(f))
		return f
	}
	return n.start(name, bound, size, cs)
}

// arrival is a flow whose latency has elapsed: it enters the network,
// or, carrying no bytes, completes. It is the flow itself queued as an
// event handler, so a delayed start builds no closure.
type arrival Flow

// Handle admits the flow, or completes a latency-only one.
func (a *arrival) Handle() {
	f := (*Flow)(a)
	n := f.net
	if f.remaining <= 0 {
		f.finished = true
		f.done.Fire()
		return
	}
	n.advance()
	n.admit(f)
	n.reschedule()
}

// Wait blocks the process until the flow completes.
func (f *Flow) Wait(p *sim.Proc) {
	if f.finished {
		return
	}
	f.done.Wait(p)
}

// newFlow builds a flow that has yet to complete. Its completion signal
// is labelled by the flow itself, so deadlock diagnostics can report
// "blocked: 1 on signal flow h2d:0.0" without the name being formatted
// on runs that never deadlock.
func (n *Network) newFlow(name func() string, bound string, size units.Bytes, cs []*Constraint) *Flow {
	f := &Flow{net: n, name: name, bound: bound, remaining: float64(size), size: float64(size), cs: cs}
	f.done.Label = f
	return f
}

// start registers a flow and returns it; flows with no constraints
// complete instantly.
func (n *Network) start(name func() string, bound string, size units.Bytes, cs []*Constraint) *Flow {
	if len(cs) == 0 {
		return &Flow{name: name, bound: bound, remaining: float64(size), size: float64(size), finished: true}
	}
	f := n.newFlow(name, bound, size, cs)
	n.advance()
	n.admit(f)
	n.reschedule()
	return f
}

// advance progresses all active flows to the current time at their
// previously computed rates.
func (n *Network) advance() {
	now := n.eng.Now()
	//pvclint:ignore timeunit the fluid integrator multiplies seconds by bytes/second; the product leaves the time domain
	dt := float64(now - n.lastT)
	n.lastT = now
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule recomputes fair-share rates, completes any drained flows,
// and re-arms the completion timer for the soonest finish; the arming it
// replaces, still queued, runs nothing. Completions whose remaining time
// is below the virtual clock's floating-point resolution (which happens
// when microsecond transfers follow hour-long kernels) are drained
// immediately — otherwise the timer could not advance the clock and the
// network would spin forever.
func (n *Network) reschedule() {
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
		soonest := math.Inf(1)
		for _, f := range n.flows {
			rate := math.Inf(1)
			for _, c := range f.cs {
				share := c.capacity / float64(c.active)
				if share < rate {
					rate = share
				}
			}
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
		//pvclint:ignore timeunit math.Nextafter probes the raw float grid of the clock; units.Seconds has no epsilon
		now := float64(n.eng.Now())
		resolution := math.Nextafter(now, math.Inf(1)) - now
		if soonest >= resolution {
			n.next.Arm(units.Seconds(soonest))
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
	Name    string
	Fwd     *Constraint // e.g. host-to-device
	Rev     *Constraint // e.g. device-to-host
	Duplex  *Constraint
	Latency units.Seconds

	fwd, rev []*Constraint // Dir's two constraint sets, built once
}

// NewLink constructs the pipes for one port.
func NewLink(n *Network, name string, sustained units.ByteRate, duplexFactor float64, latency units.Seconds) *Link {
	if duplexFactor <= 0 {
		duplexFactor = 2
	}
	l := &Link{
		Name:    name,
		Fwd:     n.MustConstraint(name+"/fwd", sustained),
		Rev:     n.MustConstraint(name+"/rev", sustained),
		Duplex:  n.MustConstraint(name+"/duplex", units.ByteRate(float64(sustained)*duplexFactor)),
		Latency: latency,
	}
	l.fwd = []*Constraint{l.Fwd, l.Duplex}
	l.rev = []*Constraint{l.Rev, l.Duplex}
	return l
}

// Dir selects the constraint set for one direction of the link: the
// directional pipe plus the shared duplex cap. The slice is the link's
// own: callers must not modify it, and a route that extends it must copy
// it first (appending to it already copies, as its capacity is full).
func (l *Link) Dir(reverse bool) []*Constraint {
	if reverse {
		return l.rev
	}
	return l.fwd
}
