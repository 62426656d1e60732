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
	"sort"

	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
)

// Constraint is one bandwidth capacity shared by the flows crossing it.
type Constraint struct {
	Name     string
	capacity float64 // bytes per second
	flows    map[*Flow]struct{}
}

// Capacity returns the constraint's capacity.
func (c *Constraint) Capacity() units.ByteRate { return units.ByteRate(c.capacity) }

// ActiveFlows returns the number of flows currently crossing the
// constraint.
func (c *Constraint) ActiveFlows() int { return len(c.flows) }

// Flow is one in-flight transfer.
type Flow struct {
	name      string
	bound     string // binding-resource tag carried onto the recorded span
	remaining float64
	rate      float64
	cs        []*Constraint
	done      *sim.Signal
	finished  bool
	seq       uint64        // admission order, breaks finish-order ties
	size      float64       // total bytes, for the recorded span
	start     units.Seconds // when the flow entered the network
}

// Bound returns the flow's binding-resource tag ("" when the flow is
// covered by an enclosing recorded span).
func (f *Flow) Bound() string { return f.bound }

// Finished reports whether the flow has completed.
func (f *Flow) Finished() bool { return f.finished }

// Remaining returns the bytes not yet delivered.
func (f *Flow) Remaining() units.Bytes { return units.Bytes(f.remaining) }

// Rate returns the flow's current share in bytes/s.
func (f *Flow) Rate() units.ByteRate { return units.ByteRate(f.rate) }

// Network manages flows over a set of constraints on one engine.
type Network struct {
	eng     *sim.Engine
	flows   map[*Flow]struct{}
	lastT   units.Seconds
	gen     uint64 // invalidates stale completion events
	seq     uint64 // admission counter for deterministic finish order
	epsilon float64
	obs     obs.Recorder
}

// Observe attaches a recorder; every completed flow is emitted as a
// span and admitted flows are counted (fabric.flows, fabric.bytes).
func (n *Network) Observe(r obs.Recorder) { n.obs = r }

// admit registers a flow with the network, stamping its admission order
// and entry time.
func (n *Network) admit(f *Flow) {
	n.seq++
	f.seq = n.seq
	f.start = n.eng.Now()
	for _, c := range f.cs {
		c.flows[f] = struct{}{}
	}
	n.flows[f] = struct{}{}
	obs.Count(n.obs, "fabric.flows", 1)
	obs.Count(n.obs, "fabric.bytes", f.size)
}

// NewNetwork creates a flow network bound to the engine.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, flows: make(map[*Flow]struct{}), epsilon: 1e-6}
}

// NewConstraint registers a capacity. Non-positive capacities are
// rejected.
func (n *Network) NewConstraint(name string, cap units.ByteRate) (*Constraint, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("fabric: constraint %q needs positive capacity", name)
	}
	return &Constraint{Name: name, capacity: float64(cap), flows: make(map[*Flow]struct{})}, nil
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
func (n *Network) Transfer(p *sim.Proc, name string, size units.Bytes, latency units.Seconds, cs ...*Constraint) {
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

// Start begins a non-blocking transfer after an optional latency delay and
// returns its Flow; callers wait on it with Flow.Wait. It is the primitive
// under MPI_Isend-style overlapped communication in the mpirt package.
func (n *Network) Start(name string, size units.Bytes, latency units.Seconds, cs ...*Constraint) *Flow {
	return n.StartBound(name, "", size, latency, cs...)
}

// StartBound is Start with a binding-resource tag: the flow's recorded
// span carries bound, attributing the transfer when no enclosing span
// covers it (the overlapped-communication path, where the flow span is
// the only record of the transfer).
func (n *Network) StartBound(name, bound string, size units.Bytes, latency units.Seconds, cs ...*Constraint) *Flow {
	if size <= 0 && latency <= 0 {
		f := &Flow{name: name, bound: bound, done: n.doneSignal(name), finished: true}
		return f
	}
	if latency > 0 {
		f := &Flow{name: name, bound: bound, remaining: float64(size), size: float64(size), cs: cs, done: n.doneSignal(name)}
		n.eng.Schedule(latency, func() {
			if f.remaining <= 0 {
				n.completePending(f)
				return
			}
			n.advance()
			n.admit(f)
			n.reschedule()
		})
		return f
	}
	return n.start(name, bound, size, cs)
}

// completePending finishes a latency-only flow.
func (n *Network) completePending(f *Flow) {
	f.finished = true
	f.done.Fire()
}

// Wait blocks the process until the flow completes.
func (f *Flow) Wait(p *sim.Proc) {
	if f.finished {
		return
	}
	f.done.Wait(p)
}

// doneSignal builds a flow's completion signal, named so deadlock
// diagnostics can report "blocked: 1 on signal flow h2d:0".
func (n *Network) doneSignal(name string) *sim.Signal {
	return sim.NewNamedSignal(n.eng, "flow "+name)
}

// start registers a flow and returns it; flows with no constraints
// complete instantly.
func (n *Network) start(name, bound string, size units.Bytes, cs []*Constraint) *Flow {
	f := &Flow{name: name, bound: bound, remaining: float64(size), size: float64(size), cs: cs, done: n.doneSignal(name)}
	if len(cs) == 0 {
		f.finished = true
		return f
	}
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
	for f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule recomputes fair-share rates, completes any drained flows,
// and schedules the next completion event. Completions whose remaining
// time is below the virtual clock's floating-point resolution (which
// happens when microsecond transfers follow hour-long kernels) are
// drained immediately — otherwise the scheduled event could not advance
// the clock and the network would spin forever.
func (n *Network) reschedule() {
	for {
		// Complete drained flows first (may cascade: their departure
		// frees bandwidth for the rest, handled by the rate recompute).
		// Finish in admission order, not map order: simultaneous
		// completions fire their signals in a reproducible sequence, so
		// downstream wakeups — and any recorded trace — are identical
		// run to run.
		var drained []*Flow
		for f := range n.flows {
			if f.remaining <= n.epsilon {
				drained = append(drained, f)
			}
		}
		sort.Slice(drained, func(i, j int) bool { return drained[i].seq < drained[j].seq })
		for _, f := range drained {
			n.finish(f)
		}
		if len(n.flows) == 0 {
			return
		}
		// Equal-share rates: share of each constraint divided by its
		// current flow count; a flow runs at its minimum share.
		soonest := math.Inf(1)
		for f := range n.flows {
			rate := math.Inf(1)
			for _, c := range f.cs {
				share := c.capacity / float64(len(c.flows))
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
			n.gen++
			gen := n.gen
			n.eng.Schedule(units.Seconds(soonest), func() {
				if gen != n.gen {
					return // a newer event supersedes this one
				}
				n.advance()
				n.reschedule()
			})
			return
		}
		// Sub-resolution completions: drain them in place and loop.
		for f := range n.flows {
			if f.rate > 0 && f.remaining/f.rate < resolution {
				f.remaining = 0
			}
		}
	}
}

func (n *Network) finish(f *Flow) {
	f.finished = true
	f.rate = 0
	for _, c := range f.cs {
		delete(c.flows, f)
	}
	delete(n.flows, f)
	obs.Emit(n.obs, obs.Span{
		Name: f.name, Cat: "flow", GPU: -1, Stack: -1,
		Start: f.start, End: n.eng.Now(), Bytes: units.Bytes(f.size),
		Bound: f.bound,
	})
	f.done.Fire()
}

// Active returns the number of in-flight flows.
func (n *Network) Active() int { return len(n.flows) }

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
}

// NewLink constructs the pipes for one port.
func NewLink(n *Network, name string, sustained units.ByteRate, duplexFactor float64, latency units.Seconds) *Link {
	if duplexFactor <= 0 {
		duplexFactor = 2
	}
	return &Link{
		Name:    name,
		Fwd:     n.MustConstraint(name+"/fwd", sustained),
		Rev:     n.MustConstraint(name+"/rev", sustained),
		Duplex:  n.MustConstraint(name+"/duplex", units.ByteRate(float64(sustained)*duplexFactor)),
		Latency: latency,
	}
}

// Dir selects the constraint set for one direction of the link: the
// directional pipe plus the shared duplex cap.
func (l *Link) Dir(reverse bool) []*Constraint {
	if reverse {
		return []*Constraint{l.Rev, l.Duplex}
	}
	return []*Constraint{l.Fwd, l.Duplex}
}
