package workload

import (
	"context"
	"errors"
	"testing"

	"pvcsim/internal/expected"
	"pvcsim/internal/gpusim"
	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
)

func TestRegistryDuplicate(t *testing.T) {
	reg := NewRegistry()
	w := New("dup", "", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (Result, error) { return Result{}, nil })
	if err := reg.Register(w); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(w); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, ok := reg.Get("missing"); ok {
		t.Fatal("Get found an unregistered workload")
	}
}

func TestResultLookupSelect(t *testing.T) {
	res := Result{Values: []Value{
		{Metric: "a", Scope: "x", Value: 1},
		{Metric: "a", Scope: "y", Value: 2},
		{Metric: "b", Scope: "", Value: 3},
	}}
	if v, ok := res.Lookup("a", "y"); !ok || v.Value != 2 {
		t.Errorf("Lookup(a,y) = %v,%v", v, ok)
	}
	// Empty scope matches the first value of the metric.
	if v, ok := res.Lookup("a", ""); !ok || v.Value != 1 {
		t.Errorf("Lookup(a,<any>) = %v,%v", v, ok)
	}
	if _, ok := res.Lookup("a", "z"); ok {
		t.Error("Lookup(a,z) found a nonexistent scope")
	}
	if got := res.Select("a"); len(got) != 2 {
		t.Errorf("Select(a) returned %d values, want 2", len(got))
	}
}

// TestSimKeyFormat pins the key bench records and the run-history
// journal share; committed BENCH_*.json baselines are keyed this way.
func TestSimKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		workload string
		sys      topology.System
		v        Value
		want     string
	}{
		{"cloverleaf", topology.Aurora, Value{Metric: "CloverLeaf", Scope: "Full Node"}, "cloverleaf:CloverLeaf/Full Node@Aurora"},
		{"p2p", topology.JLSEH100, Value{Metric: "latency"}, "p2p:latency@JLSE-H100"},
	} {
		if got := SimKey(tc.workload, tc.sys, tc.v); got != tc.want {
			t.Errorf("SimKey(%s, %s, %+v) = %q, want %q", tc.workload, tc.sys, tc.v, got, tc.want)
		}
	}
}

func TestSpecRunStampsIdentity(t *testing.T) {
	w := New("stamp", "desc", "p=1", []topology.System{topology.Dawn},
		func(ctx context.Context, tg *gpusim.Target) (Result, error) {
			return Result{Values: []Value{{Metric: "m", Value: 42}}}, nil
		})
	res, err := w.Run(context.Background(), &gpusim.Target{Node: topology.NewDawn()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "stamp" || res.System != topology.Dawn {
		t.Errorf("identity = %q/%v, want stamp/Dawn", res.Workload, res.System)
	}
	if ParamsOf(w) != "p=1" || DescriptionOf(w) != "desc" {
		t.Errorf("params/description not exposed: %q %q", ParamsOf(w), DescriptionOf(w))
	}
	if Supports(w, topology.Aurora) || !Supports(w, topology.Dawn) {
		t.Error("Supports does not respect the system list")
	}
}

func TestSpecRunHonorsContext(t *testing.T) {
	w := New("ctx", "", "", []topology.System{topology.Aurora},
		func(ctx context.Context, tg *gpusim.Target) (Result, error) {
			t.Fatal("run closure called despite cancelled context")
			return Result{}, nil
		})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Run(ctx, &gpusim.Target{Node: topology.NewAurora()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvalFOMTableVICoverage checks EvalFOM produces a positive value for
// every cell the paper publishes. (The model may also fill some cells the
// paper leaves blank — e.g. a per-GPU miniQMC estimate on MI250 — which
// the Table VI view filters out against the published coverage.)
func TestEvalFOMTableVICoverage(t *testing.T) {
	grans := map[expected.Granularity]func(paper.FOMRow) float64{
		expected.PerStack: func(r paper.FOMRow) float64 { return r.OneStack },
		expected.PerGPU:   func(r paper.FOMRow) float64 { return r.OneGPU },
		expected.PerNode:  func(r paper.FOMRow) float64 { return r.FullNode },
	}
	for _, w := range paper.Workloads() {
		for _, sys := range topology.AllSystems() {
			pub, published := paper.TableVI[w][sys]
			if !published {
				continue
			}
			for g, get := range grans {
				v, ok, err := EvalFOM(w, sys, g)
				if err != nil {
					t.Fatalf("%s %s %s: %v", w, sys, g, err)
				}
				if get(pub) != 0 && !ok {
					t.Errorf("%s %s %s: blank cell where the paper has a value", w, sys, g)
					continue
				}
				if ok && v <= 0 {
					t.Errorf("%s %s %s: non-positive FOM %v", w, sys, g, v)
				}
			}
		}
	}
	if _, _, err := EvalFOM(paper.Workload("bogus"), topology.Aurora, expected.PerStack); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestMetricSlugsUnique(t *testing.T) {
	seen := map[string]paper.Metric{}
	for _, m := range paper.TableIIMetrics() {
		slug := MetricSlug(m)
		if slug == "" {
			t.Errorf("no slug for %s", m)
		}
		if prev, dup := seen[slug]; dup {
			t.Errorf("slug %q shared by %s and %s", slug, prev, m)
		}
		seen[slug] = m
	}
}

func TestFOMNameRoundTrip(t *testing.T) {
	if _, ok := FOMName(paper.Workload("nope")); ok {
		t.Fatal("FOMName accepted an unknown workload")
	}
	for _, w := range paper.Workloads() {
		name, ok := FOMName(w)
		if !ok || name == "" {
			t.Fatalf("no name for %s", w)
		}
	}
}
