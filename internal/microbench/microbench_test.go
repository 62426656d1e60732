package microbench

import (
	"math"
	"testing"

	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// tolFor returns the fidelity tolerance per Table II metric: most rows
// reproduce within 10%; the Dawn TF32GEMM one-PVC cell is a measurement
// outlier (its scaling anchor differs from every other low-precision GEMM)
// and is held to 15%.
func tolFor(m paper.Metric) float64 {
	if m == paper.TF32GEMM {
		return 0.15
	}
	return 0.10
}

// The headline fidelity test: every cell of Table II regenerates within
// tolerance on both PVC systems.
func TestTableIIReproduced(t *testing.T) {
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		s := NewSuite(topology.NewNode(sys))
		want := paper.TableII[sys]
		for _, m := range paper.TableIIMetrics() {
			for i, scope := range []paper.Scope{paper.OneStack, paper.OnePVC, paper.FullNode} {
				g, err := s.Run(m, scope)
				if err != nil {
					t.Fatalf("%v %s (%v): %v", sys, m, scope, err)
				}
				w := want[m][i]
				rel := math.Abs(g-w) / w
				if rel > tolFor(m) {
					t.Errorf("%v %s (%v): got %.3g, paper %.3g (%.1f%% off)",
						sys, m, scope, g, w, rel*100)
				}
			}
		}
	}
}

// Table III: point-to-point bandwidths within 10%.
func TestTableIIIReproduced(t *testing.T) {
	check := func(name string, got, want float64) {
		t.Helper()
		if want == 0 {
			return // not published
		}
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("%s: got %.1f, paper %.1f (%.1f%% off)", name, got, want, rel*100)
		}
	}
	for _, sys := range []topology.System{topology.Aurora, topology.Dawn} {
		s := NewSuite(topology.NewNode(sys))
		got, err := s.P2P()
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		want := paper.TableIII[sys]
		check(sys.String()+" local uni one", got.LocalUniOne, want.LocalUniOne)
		check(sys.String()+" local uni all", got.LocalUniAll, want.LocalUniAll)
		check(sys.String()+" local bidir one", got.LocalBidirOne, want.LocalBidirOne)
		check(sys.String()+" local bidir all", got.LocalBidirAll, want.LocalBidirAll)
		check(sys.String()+" remote uni one", got.RemoteUniOne, want.RemoteUniOne)
		check(sys.String()+" remote uni all", got.RemoteUniAll, want.RemoteUniAll)
		check(sys.String()+" remote bidir one", got.RemoteBidirOne, want.RemoteBidirOne)
		check(sys.String()+" remote bidir all", got.RemoteBidirAll, want.RemoteBidirAll)
	}
}

// Figure 1: the latency ladder's plateau ratios across architectures.
func TestFigure1RatiosReproduced(t *testing.T) {
	pvc := NewSuite(topology.NewAurora())
	h100 := NewSuite(topology.NewJLSEH100())
	mi250 := NewSuite(topology.NewJLSEMI250())
	for level, want := range paper.Figure1Ratios {
		gotH := pvc.LatsPlateau(level) / h100.LatsPlateau(level)
		if math.Abs(gotH-want["H100"])/want["H100"] > 0.05 {
			t.Errorf("%s PVC/H100 = %.2f, paper %.2f", level, gotH, want["H100"])
		}
		gotM := pvc.LatsPlateau(level) / mi250.LatsPlateau(level)
		if math.Abs(gotM-want["MI250"])/want["MI250"] > 0.05 {
			t.Errorf("%s PVC/MI250 = %.2f, paper %.2f", level, gotM, want["MI250"])
		}
	}
}

// Dawn and Aurora "consistently perform within 1-2% of each other" on the
// latency ladder — same silicon.
func TestLatsAuroraDawnIdentical(t *testing.T) {
	a := NewSuite(topology.NewAurora()).Lats(LatsDefaultLo, 1*units.GB)
	d := NewSuite(topology.NewDawn()).Lats(LatsDefaultLo, 1*units.GB)
	if len(a) != len(d) {
		t.Fatal("sweep lengths differ")
	}
	for i := range a {
		if math.Abs(a[i].Cycles-d[i].Cycles)/d[i].Cycles > 0.02 {
			t.Errorf("at %v: Aurora %v vs Dawn %v", a[i].Footprint, a[i].Cycles, d[i].Cycles)
		}
	}
}

func TestLatsLadderShape(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	pts := s.Lats(LatsDefaultLo, LatsDefaultHi)
	if len(pts) < 20 {
		t.Fatalf("sweep too short: %d points", len(pts))
	}
	prev := 0.0
	for _, p := range pts {
		if p.Cycles < prev {
			t.Fatalf("latency not monotone at %v", p.Footprint)
		}
		prev = p.Cycles
	}
	// Level labels follow the capacities.
	if pts[0].Level != "L1" {
		t.Errorf("1 KiB level = %s", pts[0].Level)
	}
	if last := pts[len(pts)-1]; last.Level != "HBM" {
		t.Errorf("8 GB level = %s", last.Level)
	}
	if s.LatsPlateau("nope") != 0 {
		t.Error("unknown level should report 0")
	}
}

// The execution-driven chase agrees with the analytic ladder inside L1.
func TestLatsSimulatedCrossCheck(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	got, err := s.LatsSimulated(64*units.KiB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-61) > 1 {
		t.Errorf("simulated 64KiB chase = %v cycles, want ~61 (L1)", got)
	}
	if _, err := s.LatsSimulated(64, 1); err != nil {
		t.Errorf("tiny footprint should clamp, got %v", err)
	}
}

func TestHostSelfCheck(t *testing.T) {
	if err := HostSelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestStacksFor(t *testing.T) {
	a := NewSuite(topology.NewAurora())
	if a.StacksFor(paper.OneStack) != 1 || a.StacksFor(paper.OnePVC) != 2 || a.StacksFor(paper.FullNode) != 12 {
		t.Error("Aurora scope mapping")
	}
	h := NewSuite(topology.NewJLSEH100())
	if h.StacksFor(paper.OnePVC) != 1 || h.StacksFor(paper.FullNode) != 4 {
		t.Error("H100 scope mapping")
	}
}

func TestRunUnknownMetric(t *testing.T) {
	s := NewSuite(topology.NewAurora())
	if _, err := s.Run(paper.Metric("bogus"), paper.OneStack); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Metric: paper.DGEMM, Scope: paper.OneStack, Value: 13, Unit: "TFlop/s"}
	if r.String() != "DGEMM (One Stack) = 13 TFlop/s" {
		t.Errorf("got %q", r.String())
	}
}

// The P2P benchmark runs on the H100 node too: no local rows (single
// subdevice per card), NVLink remote rows.
func TestP2POnH100(t *testing.T) {
	s := NewSuite(topology.NewJLSEH100())
	got, err := s.P2P()
	if err != nil {
		t.Fatal(err)
	}
	if got.LocalUniOne != 0 {
		t.Error("H100 has no local stack pair")
	}
	if got.RemoteUniOne < 300 {
		t.Errorf("H100 NVLink pair = %.0f GB/s, want ~405", got.RemoteUniOne)
	}
}

// Dual-GCD planeless systems (MI250, Frontier) must pair remote stacks
// disjointly; a shared destination deadlocks the bidirectional exchange.
func TestP2POnDualGCDPlaneless(t *testing.T) {
	for _, node := range []*topology.NodeSpec{topology.NewJLSEMI250(), topology.NewFrontier()} {
		s := NewSuite(node)
		got, err := s.P2P()
		if err != nil {
			t.Fatalf("%s: %v", node.Name, err)
		}
		// GCD-to-GCD in-package ≈ 37 GB/s per pair (Table IV).
		if got.LocalUniOne < 35 || got.LocalUniOne > 39 {
			t.Errorf("%s local pair = %.1f GB/s, want ~37", node.Name, got.LocalUniOne)
		}
		if got.RemoteBidirAll <= got.RemoteBidirOne {
			t.Errorf("%s: remote pairs should aggregate (%v vs %v)",
				node.Name, got.RemoteBidirAll, got.RemoteBidirOne)
		}
	}
}
