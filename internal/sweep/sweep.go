// Package sweep turns the fixed experiment list into declarative
// scenario families: a Family is a named workload template plus a set
// of axes (system, problem size, node count, precision, placement
// policy, ...), and expansion walks the cartesian product of the axis
// values in a deterministic order, producing ordinary *workload.Workload
// cells with stable names. Because the cells that come out are plain
// registry entries, everything downstream — runner memoization,
// obs/prof/telemetry, artifacts, pvcd — works unchanged.
//
// Determinism contract: axes expand in definition order with the last
// axis varying fastest (odometer order), cell names are derived only
// from the family name and the point's axis values, and expansion never
// consults clocks, maps in range order, or any other run-varying state.
// The same family therefore always yields the same cells in the same
// order, which is what keeps registry output, memo keys, and artifact
// bytes stable across runs and worker counts.
package sweep

import (
	"fmt"
	"sort"
	"strings"

	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// Axis is one sweep dimension: a name and its ordered values.
type Axis struct {
	Name   string
	Values []string
}

// Point is one cell of a family's cartesian product: a value index per
// axis, in axis order.
type Point struct {
	axes []Axis
	idx  []int
}

// Get returns the point's value on the named axis ("" if absent).
func (p Point) Get(axis string) string {
	for i, a := range p.axes {
		if a.Name == axis {
			return a.Values[p.idx[i]]
		}
	}
	return ""
}

// String renders the point as "k1=v1,k2=v2" in axis order — the suffix
// of the default cell name.
func (p Point) String() string {
	parts := make([]string, len(p.axes))
	for i, a := range p.axes {
		parts[i] = a.Name + "=" + a.Values[p.idx[i]]
	}
	return strings.Join(parts, ",")
}

// Family is one declarative scenario family.
type Family struct {
	Name string
	Desc string
	Axes []Axis
	// Make builds the cell for one point; name is the cell's stable
	// registry name, which the returned workload must adopt.
	Make func(name string, p Point) (*workload.Workload, error)
	// NameFor optionally overrides the default cell-naming scheme
	// (family/k1=v1,...). The legacy paper families use it to keep
	// their original flat names ("triad", "cloverleaf", ...).
	NameFor func(p Point) string
}

// CellName returns the stable name of the family's cell at a point:
// NameFor's answer when overridden, the family name itself for
// zero-axis families, and "family/k1=v1,k2=v2" otherwise.
func (f *Family) CellName(p Point) string {
	if f.NameFor != nil {
		return f.NameFor(p)
	}
	if len(f.Axes) == 0 {
		return f.Name
	}
	return f.Name + "/" + p.String()
}

// Validate checks the family definition: a name, well-formed axes with
// unique names and unique non-empty values, and — for an axis named
// "system" — values drawn from the extended system list (the paper
// systems plus Frontier), so what-if sweeps can reach Frontier but a
// typo cannot silently expand to nothing.
func (f *Family) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("sweep: family with empty name")
	}
	if f.Make == nil {
		return fmt.Errorf("sweep: family %q has no Make", f.Name)
	}
	seenAxis := map[string]bool{}
	for _, a := range f.Axes {
		if a.Name == "" {
			return fmt.Errorf("sweep: family %q has an unnamed axis", f.Name)
		}
		if seenAxis[a.Name] {
			return fmt.Errorf("sweep: family %q repeats axis %q", f.Name, a.Name)
		}
		seenAxis[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: family %q axis %q has no values", f.Name, a.Name)
		}
		seenVal := map[string]bool{}
		for _, v := range a.Values {
			if v == "" {
				return fmt.Errorf("sweep: family %q axis %q has an empty value", f.Name, a.Name)
			}
			if seenVal[v] {
				return fmt.Errorf("sweep: family %q axis %q repeats value %q", f.Name, a.Name, v)
			}
			seenVal[v] = true
			if a.Name == "system" {
				if err := validSystem(v); err != nil {
					return fmt.Errorf("sweep: family %q: %w", f.Name, err)
				}
			}
		}
	}
	return nil
}

// validSystem accepts any spelling ParseSystem does, as long as the
// parsed system is in the extended set.
func validSystem(v string) error {
	sys, err := topology.ParseSystem(v)
	if err != nil {
		return err
	}
	for _, s := range topology.AllSystemsExtended() {
		if s == sys {
			return nil
		}
	}
	return fmt.Errorf("system %q is not in the extended system set", v)
}

// Where restricts an expansion: axis name → required value.
type Where map[string]string

// ParseWhere parses a comma-separated "k=v,k2=v2" restriction string
// (the -where flag). An empty string means no restriction.
func ParseWhere(s string) (Where, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	w := Where{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		k, v, ok := strings.Cut(part, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("sweep: bad -where clause %q (want key=value)", part)
		}
		if _, dup := w[k]; dup {
			return nil, fmt.Errorf("sweep: -where repeats key %q", k)
		}
		w[k] = v
	}
	return w, nil
}

// check validates the restriction against the family's axes.
func (w Where) check(f *Family) error {
	// Iterate keys in sorted order so error messages are deterministic.
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var axis *Axis
		for i := range f.Axes {
			if f.Axes[i].Name == k {
				axis = &f.Axes[i]
				break
			}
		}
		if axis == nil {
			names := make([]string, len(f.Axes))
			for i, a := range f.Axes {
				names[i] = a.Name
			}
			return fmt.Errorf("sweep: family %q has no axis %q (have: %s)",
				f.Name, k, strings.Join(names, ", "))
		}
		found := false
		for _, v := range axis.Values {
			if v == w[k] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("sweep: family %q axis %q has no value %q (have: %s)",
				f.Name, k, w[k], strings.Join(axis.Values, ", "))
		}
	}
	return nil
}

// matches reports whether a point satisfies the restriction.
func (w Where) matches(p Point) bool {
	for k, v := range w {
		if p.Get(k) != v {
			return false
		}
	}
	return true
}

// Expand walks the family's cartesian product in odometer order (last
// axis fastest) and builds the cell for every point matching the
// restriction (nil = all points). Each built workload must report the
// point's stable cell name, a contract Expand enforces.
func (f *Family) Expand(where Where) ([]*workload.Workload, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := where.check(f); err != nil {
		return nil, err
	}
	idx := make([]int, len(f.Axes))
	var out []*workload.Workload
	for {
		p := Point{axes: f.Axes, idx: append([]int(nil), idx...)}
		if where.matches(p) {
			name := f.CellName(p)
			w, err := f.Make(name, p)
			if err != nil {
				return nil, fmt.Errorf("sweep: building %s: %w", name, err)
			}
			if w.Name() != name {
				return nil, fmt.Errorf("sweep: family %q built cell %q for point %q (naming contract broken)",
					f.Name, w.Name(), name)
			}
			out = append(out, w)
		}
		// Odometer increment, last axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(f.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}
