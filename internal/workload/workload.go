// Package workload defines the single front door to every experiment of
// the study: a Workload interface, a self-describing Result type, and a
// Registry in which every microbenchmark, mini-app, application, and
// extension sweep is registered with its parameters. Tables and figures
// (internal/core) become pure views over Results, and the parallel
// executor (internal/runner) fans (system × workload) cells across a
// worker pool without knowing what any workload computes. Each cell
// hands its workload a gpusim.Target, and the workload builds only what
// it drives: analytic cells build nothing, microbenchmarks build their
// per-run machines, cluster cells their cluster.
package workload

import (
	"context"
	"fmt"
	"sort"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/topology"
)

// Value is one self-describing measurement: what was measured (Metric),
// at which granularity or sample point (Scope), the number itself, its
// unit, and the resource that bounds it. Series-like workloads (lats,
// message-size sweeps) additionally carry the numeric x-coordinate in X.
type Value struct {
	Metric string  // e.g. "DGEMM", "latency", "local uni one"
	Scope  string  // e.g. "One Stack", "Full Node", "L2", a message size
	Value  float64 // the measurement
	Unit   string  // e.g. "TFlop/s", "GB/s", "cycles"
	Bound  string  // bound resource, e.g. "compute", "HBM bandwidth"
	X      float64 // numeric x-coordinate for series (0 when not a series)
}

// SimKey renders the key one simulated value carries in bench records
// and the run-history journal, "workload:metric[/scope]@system", so
// `pvcprof history` can diff journal records against BENCH_*.json.
func SimKey(workload string, sys topology.System, v Value) string {
	key := workload + ":" + v.Metric
	if v.Scope != "" {
		key += "/" + v.Scope
	}
	return key + "@" + sys.String()
}

// Result is the outcome of one (workload, system) cell.
type Result struct {
	Workload string
	System   topology.System
	Values   []Value
}

// Lookup returns the first value matching metric and scope. An empty
// metric or scope matches anything.
func (r *Result) Lookup(metric, scope string) (Value, bool) {
	for _, v := range r.Values {
		if (metric == "" || v.Metric == metric) && (scope == "" || v.Scope == scope) {
			return v, true
		}
	}
	return Value{}, false
}

// Select returns every value matching metric (all of them when metric is
// empty), preserving order.
func (r *Result) Select(metric string) []Value {
	var out []Value
	for _, v := range r.Values {
		if metric == "" || v.Metric == metric {
			out = append(out, v)
		}
	}
	return out
}

// Workload is one registered experiment. Run receives the cell's own
// build target: its node spec and the cell's observers. A workload
// builds through it only the machine or cluster it drives, and must not
// retain what it builds across calls — that is what keeps parallel runs
// bit-identical to serial ones.
type Workload interface {
	Name() string
	Systems() []topology.System
	Run(ctx context.Context, t *gpusim.Target) (Result, error)
}

// Parameterized is implemented by workloads whose identity includes
// parameters beyond the name; the runner's memo cache keys on
// (system, name, params).
type Parameterized interface {
	Params() string
}

// Describer is implemented by workloads that carry a one-line
// description for -list output.
type Describer interface {
	Description() string
}

// ParamsOf returns the cache-key parameter string of a workload.
func ParamsOf(w Workload) string {
	if p, ok := w.(Parameterized); ok {
		return p.Params()
	}
	return ""
}

// DescriptionOf returns the workload's description, or "".
func DescriptionOf(w Workload) string {
	if d, ok := w.(Describer); ok {
		return d.Description()
	}
	return ""
}

// Supports reports whether the workload runs on the system.
func Supports(w Workload, sys topology.System) bool {
	for _, s := range w.Systems() {
		if s == sys {
			return true
		}
	}
	return false
}

// Spec is the standard Workload implementation: a named closure with its
// parameters and supported systems baked in at registration time.
type Spec struct {
	name    string
	desc    string
	params  string
	systems []topology.System
	run     func(ctx context.Context, t *gpusim.Target) (Result, error)
}

// New builds a Spec. The params string must capture every knob that
// changes the result, since the runner memoizes on it.
func New(name, desc, params string, systems []topology.System,
	run func(ctx context.Context, t *gpusim.Target) (Result, error)) *Spec {
	return &Spec{name: name, desc: desc, params: params, systems: systems, run: run}
}

// Name implements Workload.
func (s *Spec) Name() string { return s.name }

// Description implements Describer.
func (s *Spec) Description() string { return s.desc }

// Params implements Parameterized.
func (s *Spec) Params() string { return s.params }

// Systems implements Workload.
func (s *Spec) Systems() []topology.System { return append([]topology.System(nil), s.systems...) }

// Run implements Workload.
func (s *Spec) Run(ctx context.Context, t *gpusim.Target) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	res, err := s.run(ctx, t)
	if err != nil {
		return Result{}, err
	}
	res.Workload = s.name
	res.System = t.Node.System
	return res, nil
}

// Registry holds workloads by name in registration order.
type Registry struct {
	order  []string
	byName map[string]Workload
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]Workload{}} }

// Register adds a workload; duplicate names are an error.
func (r *Registry) Register(w Workload) error {
	if w.Name() == "" {
		return fmt.Errorf("workload: empty name")
	}
	if _, dup := r.byName[w.Name()]; dup {
		return fmt.Errorf("workload: duplicate name %q", w.Name())
	}
	r.byName[w.Name()] = w
	r.order = append(r.order, w.Name())
	return nil
}

// MustRegister is Register, panicking on error (registration is static).
func (r *Registry) MustRegister(w Workload) {
	if err := r.Register(w); err != nil {
		panic(err)
	}
}

// Get returns the named workload.
func (r *Registry) Get(name string) (Workload, bool) {
	w, ok := r.byName[name]
	return w, ok
}

// Names lists registered names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// SortedNames lists registered names alphabetically.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// Workloads lists workloads in registration order.
func (r *Registry) Workloads() []Workload {
	out := make([]Workload, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// Len returns the number of registered workloads.
func (r *Registry) Len() int { return len(r.order) }
