package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pvcsim/internal/obs"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/wallprof"
)

// engineFamilies are the registry families whose cells drive the event
// engine, the fabric model and the MPI runtime: every other family is
// analytic or nearly so.
var engineFamilies = []string{"allreduce", "clover-strong", "clover-scaling"}

// engineCell is one (system, workload) cell of an engine family.
type engineCell struct {
	Key    string // "workload@system"
	Family string
	Cell   runner.Cell
}

// expandEngineCells expands the engine families through the sweep layer.
func expandEngineCells() ([]engineCell, error) {
	var out []engineCell
	for _, name := range engineFamilies {
		f, ok := sweep.FamilyByName(name)
		if !ok {
			return nil, fmt.Errorf("sweep family %q is not registered", name)
		}
		ws, err := f.Expand(nil)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			for _, sys := range w.Systems() {
				out = append(out, engineCell{
					Key: w.Name() + "@" + sys.String(), Family: name,
					Cell: runner.Cell{System: sys, Workload: w},
				})
			}
		}
	}
	return out, nil
}

// cellRef is one cell run in-process with obs and wallprof attached: its
// recorded outputs plus what the reference run observed about the engine.
type cellRef struct {
	cellExpect
	metricsJSON  []byte // the cell's obs metrics export, as pvcd serves it
	instrumented bool   // wallprof saw the cell's engine run
	reportTime   time.Duration
}

// referenceRun computes a cell on a fresh runner with obs and wallprof
// attached, the way pvcd runs every request, and digests its outputs.
func referenceRun(c runner.Cell) (cellRef, error) {
	r := runner.New(1)
	col := obs.NewCollector()
	r.Observe(col)
	wp := wallprof.New()
	r.ProfileWall(wp)
	res := r.Run(context.Background(), []runner.Cell{c})[0]
	if res.Err != nil {
		return cellRef{}, res.Err
	}
	resultSHA, err := resultDigest(res)
	if err != nil {
		return cellRef{}, err
	}
	t0 := time.Now()
	rep := col.Report()
	var buf bytes.Buffer
	if err := rep.WriteMetrics(&buf); err != nil {
		return cellRef{}, err
	}
	reportTime := time.Since(t0)
	ev := countEngine(rep.Cells)
	ref := cellRef{
		cellExpect: cellExpect{
			Result: resultSHA, Metrics: digest(buf.Bytes()),
			Events: ev.events, Flows: ev.flows, Bytes: ev.bytes, Hops: ev.hops,
		},
		metricsJSON: buf.Bytes(),
		reportTime:  reportTime,
	}
	for _, wc := range wp.Report().Cells {
		if wc.EngineRuns > 0 {
			ref.instrumented = true
		}
	}
	return ref, nil
}

// resultDigest hashes a cell's simulated result values.
func resultDigest(res runner.CellResult) (string, error) {
	data, err := json.Marshal(res.Result.Values)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// referenceAll runs every cell once in-process and checks (or, when
// recording, stores) its outputs.
func referenceAll(e *env, cells []engineCell) (map[string]cellRef, error) {
	refs := map[string]cellRef{}
	for _, c := range cells {
		ref, err := referenceRun(c.Cell)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
		if e.record {
			e.exp.Cells[c.Key] = ref.cellExpect
		} else if want, ok := e.exp.Cells[c.Key]; !ok || want != ref.cellExpect {
			return nil, fmt.Errorf("%s: outputs differ from expected.json (got %+v, want %+v)", c.Key, ref.cellExpect, want)
		}
		refs[c.Key] = ref
	}
	return refs, nil
}

// engineCounts are the exact engine and fabric counts of a set of cells.
type engineCounts struct {
	cells, events      int
	flows, bytes, hops float64
}

// countEngine sums the events and fabric counters of a report's cells.
func countEngine(cells []obs.CellReport) engineCounts {
	var c engineCounts
	for _, cr := range cells {
		c.cells++
		c.events += cr.Events
		for _, ctr := range cr.Counters {
			switch ctr.Name {
			case "fabric.flows":
				c.flows += ctr.Value
			case "fabric.bytes":
				c.bytes += ctr.Value
			case "fabric.hops":
				c.hops += ctr.Value
			}
		}
	}
	return c
}

// engineCoverage counts the cells that ran simulated events and those of
// them whose engine ran under wallprof.
type engineCoverage struct {
	withEvents, instrumented int
}

func (c engineCoverage) share() float64 {
	return ratio(float64(c.instrumented), float64(c.withEvents))
}

// coverageOf measures wallprof's engine coverage over a report's cells.
func coverageOf(cells []obs.CellReport, wall *wallprof.Report) engineCoverage {
	engineRan := map[string]bool{}
	if wall != nil {
		for _, wc := range wall.Cells {
			engineRan[wc.Name()] = wc.EngineRuns > 0
		}
	}
	var c engineCoverage
	for _, cr := range cells {
		if cr.Events > 0 {
			c.withEvents++
			if engineRan[obs.Key{Workload: cr.Workload, System: cr.System, Params: cr.Params}.String()] {
				c.instrumented++
			}
		}
	}
	return c
}
