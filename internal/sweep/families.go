package sweep

import (
	"fmt"
	"strconv"

	"pvcsim/internal/microbench"
	"pvcsim/internal/paper"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// The default families. The first nine reproduce the original
// hand-enumerated registry cell for cell (same names, parameters,
// systems, and registration order — the refactor's regression contract);
// the last two are the scale-out families the cluster model unlocks.

// metricValues lists the Table II metric slugs in table order.
func metricValues() []string {
	var out []string
	for _, m := range paper.TableIIMetrics() {
		out = append(out, workload.MetricSlug(m))
	}
	return out
}

// metricFor resolves a slug back to its paper metric.
func metricFor(slug string) (paper.Metric, error) {
	for _, m := range paper.TableIIMetrics() {
		if workload.MetricSlug(m) == slug {
			return m, nil
		}
	}
	return "", fmt.Errorf("unknown Table II metric %q", slug)
}

// fomValues lists the Table V/VI workload names in paper order.
func fomValues() []string {
	var out []string
	for _, w := range paper.Workloads() {
		name, ok := workload.FOMName(w)
		if !ok {
			continue
		}
		out = append(out, name)
	}
	return out
}

// fomFor resolves a registry name back to its paper workload.
func fomFor(name string) (paper.Workload, error) {
	for _, w := range paper.Workloads() {
		if n, ok := workload.FOMName(w); ok && n == name {
			return w, nil
		}
	}
	return "", fmt.Errorf("unknown FOM workload %q", name)
}

// single wraps a fixed single-cell constructor as a zero-axis family.
func single(name, desc string, build func() *workload.Workload) *Family {
	return &Family{
		Name: name,
		Desc: desc,
		Make: func(_ string, _ Point) (*workload.Workload, error) { return build(), nil },
	}
}

// valueNamed keeps the legacy flat cell names of one-axis paper
// families: the cell is named by the axis value alone.
func valueNamed(axis string) func(Point) string {
	return func(p Point) string { return p.Get(axis) }
}

// DefaultFamilies returns every scenario family in registration order.
func DefaultFamilies() []*Family {
	return []*Family{
		{
			Name:    "table2",
			Desc:    "Table II microbenchmark rows (E1-E5)",
			Axes:    []Axis{{Name: "metric", Values: metricValues()}},
			NameFor: valueNamed("metric"),
			Make: func(_ string, p Point) (*workload.Workload, error) {
				m, err := metricFor(p.Get("metric"))
				if err != nil {
					return nil, err
				}
				return workload.NewMetricCell(m), nil
			},
		},
		single("p2p", "Table III point-to-point benchmark (E6)", workload.NewP2PCell),
		single("lats", "Figure 1 latency ladder (E7)", func() *workload.Workload {
			return workload.NewLatsCell(microbench.LatsDefaultLo, microbench.LatsDefaultHi)
		}),
		{
			Name:    "fom",
			Desc:    "Table V/VI figure-of-merit workloads (E10-E15)",
			Axes:    []Axis{{Name: "workload", Values: fomValues()}},
			NameFor: valueNamed("workload"),
			Make: func(_ string, p Point) (*workload.Workload, error) {
				w, err := fomFor(p.Get("workload"))
				if err != nil {
					return nil, err
				}
				return workload.NewFOMCell(w), nil
			},
		},
		single("p2p-sweep", "X1 P2P latency-bandwidth curves", workload.NewP2PSweepCell),
		single("fma-sweep", "X18 kernel-size sweep", workload.NewFMASweepCell),
		single("minibude-sweep", "miniBUDE tuning surface", workload.NewBUDESweepCell),
		single("energy", "X21 energy to solution", workload.NewEnergyCell),
		single("clover-scaling", "X3 decomposed CloverLeaf weak scaling", workload.NewCloverScalingCell),
		{
			Name: "clover-strong",
			Desc: "CloverLeaf strong scaling across a multi-node cluster",
			Axes: []Axis{
				{Name: "system", Values: []string{"aurora", "dawn", "frontier"}},
				{Name: "nodes", Values: []string{"1", "2", "4"}},
				{Name: "placement", Values: []string{"packed", "spread"}},
			},
			Make: func(name string, p Point) (*workload.Workload, error) {
				sys, err := topology.ParseSystem(p.Get("system"))
				if err != nil {
					return nil, err
				}
				nodes, err := strconv.Atoi(p.Get("nodes"))
				if err != nil {
					return nil, err
				}
				place, err := topology.ParsePlacement(p.Get("placement"))
				if err != nil {
					return nil, err
				}
				return workload.NewCloverStrongCell(name, sys, nodes, place), nil
			},
		},
		{
			Name: "allreduce",
			Desc: "Allreduce collectives over the cluster network (Aurora)",
			Axes: []Axis{
				{Name: "nodes", Values: []string{"1", "2", "4"}},
				{Name: "prec", Values: []string{"fp64", "fp32"}},
				{Name: "algo", Values: []string{"rd", "ring"}},
			},
			Make: func(name string, p Point) (*workload.Workload, error) {
				nodes, err := strconv.Atoi(p.Get("nodes"))
				if err != nil {
					return nil, err
				}
				return workload.NewAllreduceCell(name, topology.Aurora, nodes, p.Get("prec"), p.Get("algo")), nil
			},
		},
	}
}

// FamilyByName finds a default family.
func FamilyByName(name string) (*Family, bool) {
	for _, f := range DefaultFamilies() {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// DefaultRegistry expands every default family, in order, into the
// workload registry every tool uses. The first nine families reproduce
// the original 25-cell study registry byte for byte; the cluster
// families append the scale-out cells after them.
func DefaultRegistry() *workload.Registry {
	r := workload.NewRegistry()
	for _, f := range DefaultFamilies() {
		cells, err := f.Expand(nil)
		if err != nil {
			panic(err)
		}
		for _, w := range cells {
			r.MustRegister(w)
		}
	}
	return r
}
