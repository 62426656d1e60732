package prof

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pvcsim/internal/obs"
	"pvcsim/internal/wallprof"
)

// Metrics is the flattened named-metric view pvcprof diff compares: a
// map of metric name → value for the simulated quantities, plus a
// separate map for wall-clock quantities (bench records and wall
// self-profiles), which are never hard-failed by default — wall time
// varies run to run, the simulated figures must not.
type Metrics struct {
	Source string // "profile", "metrics", "bench", or "wall"
	Sim    map[string]float64
	Wall   map[string]float64

	// Bench-record provenance, used by Diff to annotate cross-schema
	// comparisons instead of silently comparing fields one side cannot
	// carry. Zero/empty for non-bench sources.
	BenchSchema int
	GoVersion   string
}

// ParseMetrics auto-detects the format of a pvcsim export and flattens
// it: a profile (schema_version + cells with residency), an obs metrics
// dump (memo_hits + cells with counters), a wall self-profile
// (wall_schema_version), or a bench record array (the last record is
// compared).
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
		var r wallprof.Report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("prof: parsing wall profile: %w", err)
		}
		if r.WallSchema != wallprof.WallSchemaVersion {
			return nil, fmt.Errorf("prof: wall profile schema %d, this build understands %d",
				r.WallSchema, wallprof.WallSchemaVersion)
		}
		return flattenWall(&r), nil
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
	m := &Metrics{Source: "profile", Sim: map[string]float64{}, Wall: map[string]float64{}}
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
	m := &Metrics{Source: "metrics", Sim: map[string]float64{}, Wall: map[string]float64{}}
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
	m := &Metrics{Source: "bench", Sim: map[string]float64{}, Wall: map[string]float64{},
		BenchSchema: r.Schema, GoVersion: r.GoVersion}
	for k, v := range r.Sim {
		m.Sim[k] = v
	}
	m.Wall["wall.run_ms"] = r.Wall.RunMS
	// Self-profile totals flatten only when the record carries them: a
	// record written before the wallprof layer existed must not
	// masquerade as "zero busy time" — its absence is reported by Diff
	// (WallMissing) instead of compared.
	if r.Wall.HasSelfProfile() {
		m.Wall["wall.build_ms"] = r.Wall.BuildMS
		m.Wall["wall.simulate_ms"] = r.Wall.SimulateMS
		m.Wall["wall.lane_busy_ms"] = r.Wall.LaneBusyMS
	}
	return m
}

// flattenWall flattens a wall self-profile. Every quantity is wall
// time, so everything lands in Wall and a diff of two wall profiles
// warns (never fails) unless -fail-on-wall.
func flattenWall(r *wallprof.Report) *Metrics {
	m := &Metrics{Source: "wall", Sim: map[string]float64{}, Wall: map[string]float64{}}
	m.Wall["wall.export_ms"] = r.ExportMS
	for i := range r.Cells {
		c := &r.Cells[i]
		name := cellName(c.Workload, c.System, c.Params)
		m.Wall[name+" wall.build_ms"] = c.BuildMS
		m.Wall[name+" wall.simulate_ms"] = c.SimulateMS
		m.Wall[name+" wall.engine_run_ms"] = c.EngineRunMS
		for _, l := range c.Lanes {
			lane := fmt.Sprintf("%s wall.lane%d.", name, l.Lane)
			m.Wall[lane+"busy_ms"] = l.BusyMS
			m.Wall[lane+"utilization"] = l.Utilization
		}
	}
	return m
}

// DiffOptions controls the comparison. RelTol is the default relative
// tolerance for simulated metrics: 0 means any drift at all is a
// regression (simulated figures are deterministic, so the right default
// is exact equality). PerMetric overrides the tolerance for exact
// metric names. Wall-clock metrics only ever produce warnings unless
// FailOnWall is set.
type DiffOptions struct {
	RelTol     float64
	WallRelTol float64 // default tolerance for wall metrics (warn threshold)
	FailOnWall bool
	PerMetric  map[string]float64
}

// DiffLine is one metric's comparison.
type DiffLine struct {
	Metric   string
	Old, New float64
	Rel      float64 // |new−old| / max(|old|, 1e-300)
}

func (d DiffLine) String() string {
	return fmt.Sprintf("%s: %.6g -> %.6g (%+.2f%%)", d.Metric, d.Old, d.New, relSigned(d.Old, d.New)*100)
}

func relSigned(old, new float64) float64 {
	den := old
	if den < 0 {
		den = -den
	}
	if den < 1e-300 {
		den = 1e-300
	}
	return (new - old) / den
}

// DiffResult is the outcome of a comparison: Regressions fail the diff,
// Warnings do not.
type DiffResult struct {
	Regressions []DiffLine
	Warnings    []DiffLine
	Missing     []string // metrics present in old but absent in new — also regressions
	Added       []string // metrics new grew; informational
	WallMissing []string // wall stats present in old but absent in new — reported, never failed
	Notes       []string // provenance asymmetries (schema versions, toolchains); informational
}

// Failed reports whether the diff should exit nonzero.
func (r *DiffResult) Failed() bool { return len(r.Regressions) > 0 || len(r.Missing) > 0 }

// tolFor returns the tolerance for one metric.
func (o DiffOptions) tolFor(name string, wall bool) float64 {
	if t, ok := o.PerMetric[name]; ok {
		return t
	}
	if wall {
		return o.WallRelTol
	}
	return o.RelTol
}

// Diff compares two flattened exports. Every simulated metric whose
// relative change exceeds its tolerance (in either direction — a
// too-good result is drift too, and deserves a look as much as a
// slowdown) is a regression; wall metrics produce warnings unless
// FailOnWall. Output ordering is the sorted metric-name union.
func Diff(old, new *Metrics, opt DiffOptions) *DiffResult {
	res := &DiffResult{}
	// Cross-schema bench comparisons stay legal (old baselines must keep
	// gating new builds) but never silent: fields introduced between
	// schemas surface as added/WallMissing entries with a note naming the
	// versions, mirroring how WallMissing handles pre-wallprof records —
	// an absent field is "not recorded", never zero.
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
			"go toolchain differs: old %s vs new %s; wall-clock drift across toolchains is expected",
			orEmpty(old.GoVersion), orEmpty(new.GoVersion)))
	}
	compare := func(oldVals, newVals map[string]float64, wall bool) {
		names := make([]string, 0, len(oldVals))
		for n := range oldVals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			nv, ok := newVals[n]
			if !ok {
				if wall {
					// Not a perf regression — but not silently zero
					// either: the caller tells the user which input
					// lacks the stat.
					res.WallMissing = append(res.WallMissing, n)
					continue
				}
				res.Missing = append(res.Missing, n)
				continue
			}
			ov := oldVals[n]
			rel := relSigned(ov, nv)
			if rel < 0 {
				rel = -rel
			}
			if rel > opt.tolFor(n, wall) {
				line := DiffLine{Metric: n, Old: ov, New: nv, Rel: rel}
				if wall && !opt.FailOnWall {
					res.Warnings = append(res.Warnings, line)
				} else {
					res.Regressions = append(res.Regressions, line)
				}
			}
		}
		var added []string
		for n := range newVals {
			if _, ok := oldVals[n]; !ok {
				added = append(added, n)
			}
		}
		sort.Strings(added)
		res.Added = append(res.Added, added...)
	}
	compare(old.Sim, new.Sim, false)
	compare(old.Wall, new.Wall, true)
	return res
}
