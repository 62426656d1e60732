package sweep

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/microbench"
	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// TestDefaultRegistryContents is the registry acceptance test carried
// over from the hand-enumerated registry: every paper experiment is
// present under its original name, in the original order, and the
// cluster families append after them.
func TestDefaultRegistryContents(t *testing.T) {
	reg := DefaultRegistry()
	// 14 Table II metrics + p2p + lats + 6 FOM workloads + p2p-sweep +
	// fma-sweep + minibude-sweep + energy + clover-scaling, then the
	// 18 clover-strong and 12 allreduce cluster cells.
	if got, want := reg.Len(), 14+1+1+6+5+18+12; got != want {
		t.Fatalf("registry has %d workloads, want %d: %v", got, want, reg.Names())
	}
	for _, m := range paper.TableIIMetrics() {
		w, ok := reg.Get(workload.MetricSlug(m))
		if !ok {
			t.Fatalf("metric %s not registered", m)
		}
		if len(w.Systems()) != 2 {
			t.Errorf("%s: systems %v, want the two PVC systems", m, w.Systems())
		}
	}
	for _, pw := range paper.Workloads() {
		name, ok := workload.FOMName(pw)
		if !ok {
			t.Fatalf("no registry name for %s", pw)
		}
		if _, ok := reg.Get(name); !ok {
			t.Fatalf("workload %s not registered", name)
		}
	}
	// Registration order is stable and Names matches it.
	names := reg.Names()
	if names[0] != workload.MetricSlug(paper.TableIIMetrics()[0]) {
		t.Errorf("first workload = %q, want first Table II metric", names[0])
	}
	if got := len(reg.SortedNames()); got != reg.Len() {
		t.Errorf("SortedNames has %d entries, want %d", got, reg.Len())
	}
}

// TestLegacyRegistryEquivalence is the refactor's regression contract:
// the first 27 cells the sweep families expand to are, cell for cell,
// the workloads the old hand-enumerated registry registered — same
// name, description, parameters, and system list, in the same order.
func TestLegacyRegistryEquivalence(t *testing.T) {
	var legacy []workload.Workload
	for _, m := range paper.TableIIMetrics() {
		legacy = append(legacy, workload.NewMetricCell(m))
	}
	legacy = append(legacy, workload.NewP2PCell())
	legacy = append(legacy, workload.NewLats(microbench.LatsDefaultLo, microbench.LatsDefaultHi))
	for _, w := range paper.Workloads() {
		if _, ok := workload.FOMName(w); ok {
			legacy = append(legacy, workload.NewFOMCell(w))
		}
	}
	legacy = append(legacy,
		workload.NewP2PSweepCell(),
		workload.NewFMASweepCell(),
		workload.NewBUDESweepCell(),
		workload.NewEnergyCell(),
		workload.NewCloverScalingCell(),
	)

	expanded := DefaultRegistry().Workloads()
	if len(expanded) < len(legacy) {
		t.Fatalf("registry has %d cells, want at least the %d legacy cells", len(expanded), len(legacy))
	}
	for i, want := range legacy {
		got := expanded[i]
		if got.Name() != want.Name() {
			t.Errorf("cell %d: name %q, want %q", i, got.Name(), want.Name())
			continue
		}
		if d1, d2 := workload.DescriptionOf(got), workload.DescriptionOf(want); d1 != d2 {
			t.Errorf("%s: description %q, want %q", want.Name(), d1, d2)
		}
		if p1, p2 := workload.ParamsOf(got), workload.ParamsOf(want); p1 != p2 {
			t.Errorf("%s: params %q, want %q", want.Name(), p1, p2)
		}
		if !reflect.DeepEqual(got.Systems(), want.Systems()) {
			t.Errorf("%s: systems %v, want %v", want.Name(), got.Systems(), want.Systems())
		}
	}
}

// stub builds a trivially runnable workload for contract tests.
func stub(name string) workload.Workload {
	return workload.New(name, "stub", "", []topology.System{topology.Aurora},
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			return workload.Result{}, nil
		})
}

// TestExpansionOrderDeterministic checks odometer order (definition
// order, last axis fastest) and that repeated expansions agree.
func TestExpansionOrderDeterministic(t *testing.T) {
	f := &Family{
		Name: "fam",
		Axes: []Axis{
			{Name: "a", Values: []string{"1", "2"}},
			{Name: "b", Values: []string{"x", "y", "z"}},
		},
		Make: func(name string, p Point) (workload.Workload, error) { return stub(name), nil },
	}
	want := []string{
		"fam/a=1,b=x", "fam/a=1,b=y", "fam/a=1,b=z",
		"fam/a=2,b=x", "fam/a=2,b=y", "fam/a=2,b=z",
	}
	for round := 0; round < 3; round++ {
		cells, err := f.Expand(nil)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, w := range cells {
			names = append(names, w.Name())
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("round %d: expansion order %v, want %v", round, names, want)
		}
	}
	if f.Size() != 6 {
		t.Errorf("Size() = %d, want 6", f.Size())
	}
}

// TestZeroAxisFamily checks a family without axes expands to exactly
// one cell named after the family.
func TestZeroAxisFamily(t *testing.T) {
	f := &Family{Name: "solo", Make: func(name string, p Point) (workload.Workload, error) {
		if name != "solo" {
			t.Errorf("zero-axis cell name %q, want %q", name, "solo")
		}
		return stub(name), nil
	}}
	cells, err := f.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Name() != "solo" {
		t.Fatalf("expanded %d cells (%v), want the single %q cell", len(cells), cells, "solo")
	}
	if f.Size() != 1 {
		t.Errorf("Size() = %d, want 1", f.Size())
	}
}

// TestNamingContractEnforced checks Expand rejects a Make that ignores
// the stable cell name it was handed.
func TestNamingContractEnforced(t *testing.T) {
	f := &Family{
		Name: "fam",
		Axes: []Axis{{Name: "a", Values: []string{"1"}}},
		Make: func(name string, p Point) (workload.Workload, error) { return stub("rogue"), nil },
	}
	if _, err := f.Expand(nil); err == nil || !strings.Contains(err.Error(), "naming contract") {
		t.Fatalf("Expand = %v, want naming-contract error", err)
	}
}

// TestWhereParsing covers the -where clause grammar.
func TestWhereParsing(t *testing.T) {
	w, err := ParseWhere(" system=aurora, nodes=4 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, Where{"system": "aurora", "nodes": "4"}) {
		t.Errorf("parsed %v", w)
	}
	if w, err := ParseWhere(""); err != nil || w != nil {
		t.Errorf("empty clause: %v, %v", w, err)
	}
	for _, bad := range []string{"system", "=aurora", "system=", "a=1,a=2"} {
		if _, err := ParseWhere(bad); err == nil {
			t.Errorf("ParseWhere(%q) accepted", bad)
		}
	}
}

// TestWhereFiltering checks restriction semantics and the axis/value
// validation errors.
func TestWhereFiltering(t *testing.T) {
	f, ok := FamilyByName("clover-strong")
	if !ok {
		t.Fatal("clover-strong family not registered")
	}
	cells, err := f.Expand(Where{"system": "dawn", "nodes": "2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("restricted expansion yields %d cells, want 2 (packed+spread)", len(cells))
	}
	for _, w := range cells {
		if !strings.Contains(w.Name(), "system=dawn,nodes=2") {
			t.Errorf("cell %q escaped the restriction", w.Name())
		}
	}
	if _, err := f.Expand(Where{"bogus": "1"}); err == nil || !strings.Contains(err.Error(), "no axis") {
		t.Errorf("unknown axis: %v", err)
	}
	if _, err := f.Expand(Where{"nodes": "3"}); err == nil || !strings.Contains(err.Error(), "no value") {
		t.Errorf("unknown value: %v", err)
	}
}

// TestValidate covers the family well-formedness checks, including the
// system-axis membership rule.
func TestValidate(t *testing.T) {
	mk := func(name string, p Point) (workload.Workload, error) { return stub(name), nil }
	cases := []struct {
		label string
		f     *Family
		want  string
	}{
		{"empty name", &Family{Make: mk}, "empty name"},
		{"no make", &Family{Name: "f"}, "no Make"},
		{"unnamed axis", &Family{Name: "f", Make: mk, Axes: []Axis{{Values: []string{"1"}}}}, "unnamed axis"},
		{"dup axis", &Family{Name: "f", Make: mk, Axes: []Axis{
			{Name: "a", Values: []string{"1"}}, {Name: "a", Values: []string{"2"}}}}, "repeats axis"},
		{"no values", &Family{Name: "f", Make: mk, Axes: []Axis{{Name: "a"}}}, "no values"},
		{"empty value", &Family{Name: "f", Make: mk, Axes: []Axis{{Name: "a", Values: []string{""}}}}, "empty value"},
		{"dup value", &Family{Name: "f", Make: mk, Axes: []Axis{{Name: "a", Values: []string{"1", "1"}}}}, "repeats value"},
		{"bad system", &Family{Name: "f", Make: mk, Axes: []Axis{{Name: "system", Values: []string{"h200"}}}}, "system"},
	}
	for _, c := range cases {
		err := c.f.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.label, err, c.want)
		}
	}
	good := &Family{Name: "f", Make: mk, Axes: []Axis{{Name: "system", Values: []string{"aurora", "frontier"}}}}
	if err := good.Validate(); err != nil {
		t.Errorf("frontier system axis rejected: %v", err)
	}
}

// TestFamilyByName checks lookup over the default set.
func TestFamilyByName(t *testing.T) {
	for _, name := range []string{"table2", "fom", "clover-strong", "allreduce"} {
		if _, ok := FamilyByName(name); !ok {
			t.Errorf("FamilyByName(%q) missing", name)
		}
	}
	if _, ok := FamilyByName("nope"); ok {
		t.Error("FamilyByName accepted an unknown family")
	}
}

func ExampleFamily_CellName() {
	f, _ := FamilyByName("clover-strong")
	cells, _ := f.Expand(Where{"system": "aurora", "nodes": "4", "placement": "spread"})
	fmt.Println(cells[0].Name())
	// Output: clover-strong/system=aurora,nodes=4,placement=spread
}

func ExampleRegistry() {
	reg := DefaultRegistry()
	w, _ := reg.Get("triad")
	fmt.Println(w.Name(), len(w.Systems()))
	// Output: triad 2
}
