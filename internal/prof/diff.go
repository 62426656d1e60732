package prof

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"pvcsim/internal/obs"
)

// Metrics is the flattened named-metric view pvcprof diff compares: a
// map of metric name → simulated value. Every export it accepts is
// deterministic, so Diff compares exactly by default; the simulator's
// own wall time is measured by perfbench, not here.
type Metrics struct {
	Source string // "profile", "metrics", or "bench"
	Sim    map[string]float64

	// Bench-record provenance, used by Diff to annotate cross-schema
	// comparisons instead of silently comparing fields one side cannot
	// carry. Zero/empty for non-bench sources.
	BenchSchema int
	GoVersion   string
}

// ParseMetrics auto-detects the format of a pvcsim export and flattens
// it: a profile (schema_version + cells with residency), an obs metrics
// dump (memo_hits + cells with counters), or a bench record array (the
// last record is compared). A wall self-profile (wall_schema_version)
// is refused: wall time varies run to run, and the benchmark that
// measures it is perfbench.
func ParseMetrics(data []byte) (*Metrics, error) {
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, "[") {
		var recs []Record
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("prof: parsing bench records: %w", err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("prof: bench file holds no records")
		}
		return flattenBench(recs[len(recs)-1]), nil
	}
	var probe struct {
		SchemaVersion *int `json:"schema_version"`
		MemoHits      *int `json:"memo_hits"`
		WallSchema    *int `json:"wall_schema_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("prof: parsing export: %w", err)
	}
	switch {
	case probe.WallSchema != nil:
		return nil, fmt.Errorf("prof: a wall self-profile holds no simulated metrics to diff; " +
			"render it with `pvcprof wall report`, and measure the simulator's speed with perfbench (bash perfbench/run.sh)")
	case probe.SchemaVersion != nil:
		var p Profile
		if err := json.Unmarshal(data, &p); err != nil {
			return nil, fmt.Errorf("prof: parsing profile: %w", err)
		}
		if p.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("prof: profile schema %d, this build understands %d",
				p.SchemaVersion, SchemaVersion)
		}
		return flattenProfile(&p), nil
	case probe.MemoHits != nil:
		var r obs.RunReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("prof: parsing metrics: %w", err)
		}
		return flattenRunReport(&r), nil
	default:
		return nil, fmt.Errorf("prof: unrecognized export (want a profile, a metrics dump, or bench records)")
	}
}

func cellName(workload, system, params string) string {
	return obs.Key{Workload: workload, System: system, Params: params}.String()
}

func flattenProfile(p *Profile) *Metrics {
	m := &Metrics{Source: "profile", Sim: map[string]float64{}}
	for _, c := range p.Cells {
		name := cellName(c.Workload, c.System, c.Params)
		m.Sim[name+" attributed_s"] = c.AttributedS
		m.Sim[name+" sim_end_s"] = c.SimEndS
		for _, sh := range c.Residency {
			m.Sim[name+" residency."+sh.Bound] = sh.Fraction
		}
	}
	return m
}

func flattenRunReport(r *obs.RunReport) *Metrics {
	m := &Metrics{Source: "metrics", Sim: map[string]float64{}}
	for _, c := range r.Cells {
		name := cellName(c.Workload, c.System, c.Params)
		m.Sim[name+" events"] = float64(c.Events)
		m.Sim[name+" sim_end_s"] = c.SimEnd
		for _, ct := range c.Counters {
			m.Sim[name+" "+ct.Name] = ct.Value
		}
	}
	return m
}

func flattenBench(r Record) *Metrics {
	m := &Metrics{Source: "bench", Sim: map[string]float64{}, BenchSchema: r.Schema, GoVersion: r.GoVersion}
	for k, v := range r.Sim {
		m.Sim[k] = v
	}
	return m
}

// DiffOptions controls the comparison. RelTol is the default relative
// tolerance: 0 means any drift at all is a regression (simulated
// figures are deterministic, so the right default is exact equality).
// PerMetric overrides the tolerance for exact metric names.
type DiffOptions struct {
	RelTol    float64
	PerMetric map[string]float64
}

// DiffLine is one metric's comparison.
type DiffLine struct {
	Metric   string
	Old, New float64
	Rel      float64 // signed: (new−old) / max(|old|, 1e-300)
}

func (d DiffLine) String() string {
	return fmt.Sprintf("%s: %.6g -> %.6g (%+.2f%%)", d.Metric, d.Old, d.New, d.Rel*100)
}

// DiffResult is the outcome of a comparison.
type DiffResult struct {
	Regressions []DiffLine
	Missing     []string // metrics present in old but absent in new — also regressions
	Added       []string // metrics new grew; informational
	Notes       []string // provenance asymmetries (schema versions, toolchains); informational
}

// Failed reports whether the diff should exit nonzero.
func (r *DiffResult) Failed() bool { return len(r.Regressions) > 0 || len(r.Missing) > 0 }

// tolFor returns the tolerance for one metric.
func (o DiffOptions) tolFor(name string) float64 {
	if t, ok := o.PerMetric[name]; ok {
		return t
	}
	return o.RelTol
}

// Diff compares two flattened exports. Every metric whose relative
// change exceeds its tolerance (in either direction — a too-good result
// is drift too, and deserves a look as much as a slowdown) is a
// regression. Output ordering is the sorted metric-name order.
func Diff(old, new *Metrics, opt DiffOptions) *DiffResult {
	res := &DiffResult{}
	// Cross-schema bench comparisons stay legal (old baselines must keep
	// gating new builds) but never silent: fields introduced between
	// schemas surface as added or missing entries with a note naming the
	// versions — an absent field is "not recorded", never zero.
	if old.Source == "bench" && new.Source == "bench" && old.BenchSchema != new.BenchSchema {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"bench schema_version differs: old %d vs new %d; fields introduced between schemas are reported as added or missing, never compared as zero",
			old.BenchSchema, new.BenchSchema))
	}
	if old.GoVersion != new.GoVersion && (old.GoVersion != "" || new.GoVersion != "") {
		orEmpty := func(s string) string {
			if s == "" {
				return "(unrecorded)"
			}
			return s
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"go toolchain differs: old %s vs new %s; simulated figures are compared as usual",
			orEmpty(old.GoVersion), orEmpty(new.GoVersion)))
	}
	names := make([]string, 0, len(old.Sim))
	for n := range old.Sim {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		nv, ok := new.Sim[n]
		if !ok {
			res.Missing = append(res.Missing, n)
			continue
		}
		ov := old.Sim[n]
		den := ov
		if den < 0 {
			den = -den
		}
		if den < 1e-300 {
			den = 1e-300
		}
		rel := (nv - ov) / den
		if math.Abs(rel) > opt.tolFor(n) {
			res.Regressions = append(res.Regressions, DiffLine{Metric: n, Old: ov, New: nv, Rel: rel})
		}
	}
	for n := range new.Sim {
		if _, ok := old.Sim[n]; !ok {
			res.Added = append(res.Added, n)
		}
	}
	sort.Strings(res.Added)
	return res
}
