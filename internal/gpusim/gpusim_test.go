package gpusim

import (
	"math"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

func bwOf(size units.Bytes, t units.Seconds) float64 {
	return float64(size) / float64(t)
}

// d2d copies size bytes from src to dst on the path programs run:
// StartD2D, then Flow.Wait.
func d2d(p *sim.Proc, src *Stack, dst topology.StackID, size units.Bytes) error {
	f, err := src.StartD2D(dst, size)
	if err != nil {
		return err
	}
	f.Wait(p)
	return nil
}

// A warm cross-plane device-to-device round trip with no recorder pays
// one heap allocation: the flow. Its completion signal and waiter live
// inside it, its latency and completion events are queued as data, and
// the route, its constraint set and the flow's label are built once per
// stack pair. Before routes were cached and labels deferred, the same
// round trip made 18; before events became data, 6.
func TestD2DRoundTripAllocs(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	src, err := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	if err != nil {
		t.Fatal(err)
	}
	dst := topology.StackID{GPU: 1, Stack: 0}
	if kind := m.Node.Route(src.ID, dst); kind != topology.RemoteExtraHop {
		t.Fatalf("route %v -> %v is %v, want the cross-plane path", src.ID, dst, kind)
	}
	const rounds = 200 // amortizes the process that drives them
	run := func() {
		m.Go("rt", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				if err := d2d(p, src, dst, units.MB); err != nil {
					t.Error(err)
				}
			}
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // build the route, grow the event heap
	if perTrip := testing.AllocsPerRun(5, run) / rounds; perTrip > 1.05 {
		t.Errorf("%.2f allocs per StartD2D+Flow.Wait round trip, want at most 1", perTrip)
	}
}

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Errorf("%s = %.3g, want %.3g (±%.0f%%)", name, got, want, tol*100)
	}
}

func TestStackLookup(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	if _, err := m.Stack(topology.StackID{GPU: 5, Stack: 1}); err != nil {
		t.Error(err)
	}
	if _, err := m.Stack(topology.StackID{GPU: 6, Stack: 0}); err == nil {
		t.Error("out-of-range GPU should fail")
	}
	if _, err := m.Stack(topology.StackID{GPU: 0, Stack: 2}); err == nil {
		t.Error("out-of-range stack should fail")
	}
	if got := len(m.Stacks()); got != 12 {
		t.Errorf("Aurora stacks = %d", got)
	}
}

// A transfer to a stack the node does not have is refused rather than
// routed over links built for it.
func TestStartD2DRejectsUnknownStack(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	src, err := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, dst := range []topology.StackID{{GPU: 6, Stack: 0}, {GPU: 0, Stack: 2}, {GPU: -1, Stack: 0}} {
		if _, err := src.StartD2D(dst, units.MB); err == nil {
			t.Errorf("StartD2D to %v succeeded on a 6-card, 2-stack node", dst)
		}
	}
}

func TestNewRejectsInvalidNode(t *testing.T) {
	bad := topology.NewAurora()
	bad.GPUCount = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid node should fail")
	}
}

// newMachine builds a machine for a node the test knows is valid.
func newMachine(t *testing.T, node *topology.NodeSpec) *Machine {
	t.Helper()
	m, err := New(node)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// One-stack H2D on Aurora ≈ 54 GB/s (Table II).
func TestSingleStackH2D(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	st, _ := m.Stack(topology.StackID{})
	size := units.Bytes(500 * units.MB)
	var elapsed units.Seconds
	m.Go("h2d", func(p *sim.Proc) {
		start := p.Now()
		st.MemcpyH2D(p, size)
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "one-stack H2D", bwOf(size, elapsed), 54e9, 0.03)
}

// Full-node simultaneous D2H on Aurora is limited by the host pool:
// aggregate ≈ 264 GB/s, i.e. "40% scaling" (§IV-B4).
func TestFullNodeD2HContention(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	size := units.Bytes(500 * units.MB)
	var last units.Seconds
	for _, st := range m.Stacks() {
		s := st
		m.Go("d2h", func(p *sim.Proc) {
			s.MemcpyD2H(p, size)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	agg := 12 * float64(size) / float64(last)
	approx(t, "Aurora full-node D2H", agg, 264e9, 0.03)
}

// Single-stack bidirectional ≈ 76 GB/s total on Aurora.
func TestBidirectional(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	st, _ := m.Stack(topology.StackID{})
	size := units.Bytes(500 * units.MB)
	var last units.Seconds
	m.Go("h2d", func(p *sim.Proc) {
		st.MemcpyH2D(p, size)
		if p.Now() > last {
			last = p.Now()
		}
	})
	m.Go("d2h", func(p *sim.Proc) {
		st.MemcpyD2H(p, size)
		if p.Now() > last {
			last = p.Now()
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "bidir total", 2*float64(size)/float64(last), 76e9, 0.03)
}

// Local stack-to-stack ≈ 197 GB/s unidirectional (Table III).
func TestLocalStackToStack(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	src, _ := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	size := units.Bytes(500 * units.MB)
	var elapsed units.Seconds
	m.Go("d2d", func(p *sim.Proc) {
		start := p.Now()
		if err := d2d(p, src, topology.StackID{GPU: 0, Stack: 1}, size); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "local stack uni", bwOf(size, elapsed), 197e9, 0.03)
}

// Remote stack over Xe-Link ≈ 15 GB/s — "much slower... in fact slower
// than PCIe" (§IV-B7).
func TestRemoteStackXeLink(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	src, _ := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	size := units.Bytes(500 * units.MB)
	var elapsed units.Seconds
	m.Go("d2d", func(p *sim.Proc) {
		start := p.Now()
		// 0.0 → 1.1 shares a plane: direct hop.
		if err := d2d(p, src, topology.StackID{GPU: 1, Stack: 1}, size); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	bw := bwOf(size, elapsed)
	approx(t, "remote uni", bw, 15e9, 0.05)
	if bw >= 54e9 {
		t.Error("Xe-Link must be slower than PCIe")
	}
}

// The extra-hop path (0.0 → 1.0, cross-plane) has the same large-message
// bandwidth but higher latency than the direct path.
func TestExtraHopLatency(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	src, _ := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	tiny := units.Bytes(64)
	var tDirect, tExtra units.Seconds
	m.Go("direct", func(p *sim.Proc) {
		start := p.Now()
		_ = d2d(p, src, topology.StackID{GPU: 1, Stack: 1}, tiny)
		tDirect = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m2 := newMachine(t, topology.NewAurora())
	src2, _ := m2.Stack(topology.StackID{GPU: 0, Stack: 0})
	m2.Go("extra", func(p *sim.Proc) {
		start := p.Now()
		_ = d2d(p, src2, topology.StackID{GPU: 1, Stack: 0}, tiny)
		tExtra = p.Now() - start
	})
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if tExtra <= tDirect {
		t.Errorf("extra-hop latency %v should exceed direct %v", tExtra, tDirect)
	}
}

func TestSameStackCopy(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	st, _ := m.Stack(topology.StackID{})
	size := units.Bytes(1 * units.GB)
	var elapsed units.Seconds
	m.Go("copy", func(p *sim.Proc) {
		start := p.Now()
		_ = d2d(p, st, st.ID, size)
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 GB of traffic at 1 TB/s = 2 ms.
	approx(t, "same-stack copy", float64(elapsed), 2e-3, 0.01)
}

func TestLaunchKernelAdvancesClock(t *testing.T) {
	m := newMachine(t, topology.NewAurora())
	st, _ := m.Stack(topology.StackID{})
	prof := perfmodel.Profile{
		Name: "fma", Flops: 17.03e12, Precision: hw.FP64, Kind: perfmodel.KindPeakFlops,
	}
	var elapsed units.Seconds
	m.Go("kernel", func(p *sim.Proc) {
		start := p.Now()
		st.LaunchKernel(p, prof)
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "kernel time", float64(elapsed), 1.0, 0.02)
}

// Two stacks of the same card share one PCIe link: their concurrent H2D
// halves per-stack bandwidth; stacks of different cards do not interfere
// (below the host pool).
func TestPCIeSharedPerCard(t *testing.T) {
	m := newMachine(t, topology.NewDawn())
	size := units.Bytes(500 * units.MB)
	finish := map[string]units.Seconds{}
	for _, id := range []topology.StackID{{GPU: 0, Stack: 0}, {GPU: 0, Stack: 1}, {GPU: 1, Stack: 0}} {
		st, _ := m.Stack(id)
		name := id.String()
		m.Go(name, func(p *sim.Proc) {
			st.MemcpyH2D(p, size)
			finish[name] = p.Now()
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Card 1's lone stack finishes roughly twice as fast as card 0's two.
	if !(finish["1.0"] < finish["0.0"]/1.5) {
		t.Errorf("unshared link %v should be much faster than shared %v", finish["1.0"], finish["0.0"])
	}
}

// MI250 GCD-to-GCD in-package ≈ 37 GB/s (Table IV).
func TestMI250GCDToGCD(t *testing.T) {
	m := newMachine(t, topology.NewJLSEMI250())
	src, _ := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	size := units.Bytes(500 * units.MB)
	var elapsed units.Seconds
	m.Go("d2d", func(p *sim.Proc) {
		start := p.Now()
		_ = d2d(p, src, topology.StackID{GPU: 0, Stack: 1}, size)
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "MI250 GCD-GCD", bwOf(size, elapsed), 37e9, 0.03)
}

// H100 cards have no internal link; cross-card transfers ride NVLink.
func TestH100NVLink(t *testing.T) {
	m := newMachine(t, topology.NewJLSEH100())
	src, _ := m.Stack(topology.StackID{GPU: 0, Stack: 0})
	size := units.Bytes(500 * units.MB)
	var elapsed units.Seconds
	m.Go("d2d", func(p *sim.Proc) {
		start := p.Now()
		if err := d2d(p, src, topology.StackID{GPU: 1, Stack: 0}, size); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	approx(t, "NVLink", bwOf(size, elapsed), 405e9, 0.03) // 450 × 0.9
}

// Kernels on the same stack serialize through the in-order queue; kernels
// on different stacks run concurrently.
func TestKernelsSerializePerStack(t *testing.T) {
	prof := perfmodel.Profile{Name: "fma", Flops: 17.03e12, Precision: hw.FP64, Kind: perfmodel.KindPeakFlops}
	run := func(sameStack bool) units.Seconds {
		m := newMachine(t, topology.NewAurora())
		ids := []topology.StackID{{GPU: 0, Stack: 0}, {GPU: 0, Stack: 0}}
		if !sameStack {
			ids[1] = topology.StackID{GPU: 0, Stack: 1}
		}
		var finish units.Seconds
		for _, id := range ids {
			st, err := m.Stack(id)
			if err != nil {
				t.Fatal(err)
			}
			s := st
			m.Go("k", func(p *sim.Proc) {
				s.LaunchKernel(p, prof)
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	serial := run(true)
	parallel := run(false)
	approx(t, "same-stack makespan", float64(serial), 2.0, 0.03)
	approx(t, "cross-stack makespan", float64(parallel), 1.0, 0.03)
}
