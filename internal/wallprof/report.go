package wallprof

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/obs"
)

// WallSchemaVersion is the wall-report schema. The field name is
// distinct from the simulated profile's schema_version on purpose:
// pvcprof auto-detects export kinds by probing for it, and a wall
// report must never be mistaken for (or diffed against) a simulated
// export.
const WallSchemaVersion = 1

// LaneReport is the engine's wall-time accounting over a cell's engine
// run(s). The serial engine is a single event loop, reported as lane 0
// and busy for the whole of every run, so Utilization is 1 once it ran.
type LaneReport struct {
	Lane        int     `json:"lane"`
	BusyMS      float64 `json:"busy_ms"`
	Utilization float64 `json:"utilization"`
	Events      int64   `json:"events"`
}

// CellReport is one cell's wall-clock profile: runner phases plus the
// engine's accounting. Rounds and BarrierMS are always zero — a serial
// engine runs no epoch rounds or delivery barriers — and stay in the
// schema so existing wall reports and their readers keep working.
type CellReport struct {
	Workload string `json:"workload"`
	System   string `json:"system"`
	Params   string `json:"params,omitempty"`

	BuildMS     float64 `json:"build_ms"`
	SimulateMS  float64 `json:"simulate_ms"`
	CacheWaitMS float64 `json:"cache_wait_ms,omitempty"`
	CacheHits   int64   `json:"cache_hits,omitempty"`

	EngineRuns  int64   `json:"engine_runs"`
	EngineRunMS float64 `json:"engine_run_ms"`
	Rounds      int64   `json:"rounds"`
	BarrierMS   float64 `json:"barrier_ms"`

	Lanes []LaneReport `json:"lanes"`
}

// Name renders the cell the way every export does (obs.Key.String).
func (c *CellReport) Name() string {
	return obs.Key{Workload: c.Workload, System: c.System, Params: c.Params}.String()
}

// Report is the machine-readable wall-clock profile of one run. Unlike
// every other export in the repo it is *all* wall time: it is written
// to its own file and never mixed into the simulated artifacts, which
// stay byte-identical whether or not a collector was attached.
type Report struct {
	WallSchema int          `json:"wall_schema_version"`
	ExportMS   float64      `json:"export_ms"`
	Cells      []CellReport `json:"cells"`
}

const msPerNS = 1e-6

// Report merges every cell's profile into the canonical report, cells
// sorted by (workload, system, params). Call it after the run completes.
func (c *Collector) Report() *Report {
	rep := &Report{WallSchema: WallSchemaVersion}
	c.mu.Lock()
	rep.ExportMS = float64(c.exportNS) * msPerNS
	c.mu.Unlock()
	for _, cp := range c.sortedCells() {
		rep.Cells = append(rep.Cells, cp.report())
	}
	return rep
}

func (cp *CellProf) report() CellReport {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	out := CellReport{
		Workload:    cp.key.Workload,
		System:      cp.key.System,
		Params:      cp.key.Params,
		BuildMS:     float64(cp.buildNS) * msPerNS,
		SimulateMS:  float64(cp.simNS) * msPerNS,
		CacheWaitMS: float64(cp.cacheWaitNS) * msPerNS,
		CacheHits:   cp.cacheHits,
	}
	p := cp.probe
	if p == nil {
		return out
	}
	out.EngineRuns = p.runs
	out.EngineRunMS = float64(p.runNS) * msPerNS
	lr := LaneReport{BusyMS: out.EngineRunMS, Events: p.events}
	if p.runs > 0 {
		lr.Utilization = 1
	}
	out.Lanes = []LaneReport{lr}
	return out
}

// WriteJSON writes the report as indented JSON (the -wallprof file).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteReport writes the human tables: per cell, the phase breakdown
// and the engine's accounting.
func (r *Report) WriteReport(w io.Writer) error {
	fmt.Fprintf(w, "Wall-clock self-profile: %d cell(s), export %.3g ms\n", len(r.Cells), r.ExportMS)
	for i := range r.Cells {
		c := &r.Cells[i]
		fmt.Fprintf(w, "\n%s\n", c.Name())
		fmt.Fprintf(w, "  phases: build %.3g ms, simulate %.3g ms", c.BuildMS, c.SimulateMS)
		if c.CacheHits > 0 {
			fmt.Fprintf(w, ", cache-wait %.3g ms (%d hit(s))", c.CacheWaitMS, c.CacheHits)
		}
		fmt.Fprintln(w)
		if c.EngineRuns == 0 {
			fmt.Fprintln(w, "  engine: no instrumented runs (cell served from cache?)")
			continue
		}
		fmt.Fprintf(w, "  engine: %d run(s), %.3g ms wall\n", c.EngineRuns, c.EngineRunMS)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  LANE\tBUSY_MS\tUTIL\tEVENTS")
		for _, l := range c.Lanes {
			fmt.Fprintf(tw, "  %d\t%.3g\t%.1f%%\t%d\n", l.Lane, l.BusyMS, l.Utilization*100, l.Events)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// WriteFlame writes the wall profile as folded stacks,
//
//	cell;phase;lane 0;busy <nanoseconds>
//
// so the same flamegraph tooling that renders simulated bound
// residency renders the simulator's own wall time.
func (r *Report) WriteFlame(w io.Writer) error {
	emit := func(stack string, ms float64) error {
		ns := int64(ms*1e6 + 0.5)
		if ns <= 0 {
			return nil
		}
		_, err := fmt.Fprintf(w, "%s %d\n", stack, ns)
		return err
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		name := c.Name()
		if err := emit(name+";build", c.BuildMS); err != nil {
			return err
		}
		// Inside the simulate phase, split off the engine's busy time;
		// host model code outside the engine is the remainder.
		engine := 0.0
		for _, l := range c.Lanes {
			if err := emit(fmt.Sprintf("%s;simulate;lane %d;busy", name, l.Lane), l.BusyMS); err != nil {
				return err
			}
			engine += l.BusyMS
		}
		if err := emit(name+";simulate;host", c.SimulateMS-engine); err != nil {
			return err
		}
		if err := emit(name+";cache-wait", c.CacheWaitMS); err != nil {
			return err
		}
	}
	return emit("export", r.ExportMS)
}

// WriteChromeTrace writes the wall-time timelines as Chrome trace-event
// JSON — the second track next to the simulated-time trace (load both
// files in the same Perfetto session). One "process" per cell, with an
// engine track (one span per Run) and a runner-phase track.
// Requires EnableTimeline; without it only the phase aggregates appear.
// Unlike every simulated export this one is wall time and is expected
// to differ between runs.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	cells := c.sortedCells()
	// Zero the timeline at the earliest recorded instant so the trace
	// starts near t=0 regardless of when the collector was created.
	base := int64(0)
	haveBase := false
	see := func(t int64) {
		if !haveBase || t < base {
			base, haveBase = t, true
		}
	}
	for _, cp := range cells {
		cp.mu.Lock()
		for _, ph := range cp.phases {
			see(ph.start)
		}
		if p := cp.probe; p != nil {
			for _, s := range p.spans {
				see(s.start)
			}
		}
		cp.mu.Unlock()
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }
	var events []chrometrace.Event
	x := func(name string, pid, tid int, s span, args map[string]any) {
		dur := float64(s.end-s.start) / 1e3
		events = append(events, chrometrace.Event{
			Name: name, Ph: "X", TS: us(s.start), Dur: &dur, PID: pid, TID: tid, Args: args,
		})
	}
	const engineTID, phaseTID = 0, 1
	for pid, cp := range cells {
		cp.mu.Lock()
		events = append(events,
			chrometrace.ProcessName(pid, "wall: "+cp.key.String()),
			chrometrace.ThreadName(pid, engineTID, "engine"),
			chrometrace.ThreadName(pid, phaseTID, "runner phases"))
		for _, ph := range cp.phases {
			x(ph.name, pid, phaseTID, span{start: ph.start, end: ph.end}, nil)
		}
		if p := cp.probe; p != nil {
			for _, s := range p.spans {
				x("run", pid, engineTID, s, map[string]any{"events": s.events})
			}
		}
		cp.mu.Unlock()
	}
	return chrometrace.Write(w, events)
}
