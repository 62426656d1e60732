package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/wallprof"
)

// refCounts sums the reference pass's counts over every cell, in key order
// so float sums come out the same on every run.
func refCounts(refs map[string]cellRef) (engineCounts, engineCoverage) {
	var c engineCounts
	var cov engineCoverage
	for _, k := range sortedKeys(refs) {
		r := refs[k]
		c.cells++
		c.events += r.Events
		c.flows += r.Flows
		c.bytes += r.Bytes
		c.hops += r.Hops
		if r.Events > 0 {
			cov.withEvents++
			if r.instrumented {
				cov.instrumented++
			}
		}
	}
	return c, cov
}

// engineLayerMetrics reports the engine's round, barrier and lane figures
// from wallprof, or marks them not instrumented when no cell's engine ran
// under the probe (cluster cells build their own engine, which the runner
// never hands a probe).
func engineLayerMetrics(out *outcome, wall *wallprof.Report, cov engineCoverage) {
	var rounds, runs int64
	var barrierMS, util float64
	var lanes int
	if wall != nil {
		for _, wc := range wall.Cells {
			if wc.EngineRuns == 0 {
				continue
			}
			runs += wc.EngineRuns
			rounds += wc.Rounds
			barrierMS += wc.BarrierMS
			for _, l := range wc.Lanes {
				util += l.Utilization
				lanes++
			}
		}
	}
	if runs == 0 {
		why := fmt.Sprintf("none of %d cells with events ran the engine under wallprof", cov.withEvents)
		out.notInstrumented("sim.rounds", "count", why)
		out.notInstrumented("sim.barrier_ms", "ms", why)
		out.notInstrumented("sim.lane_util", "ratio", why)
		return
	}
	note := fmt.Sprintf("over the %d of %d cells with events wallprof instrumented", cov.instrumented, cov.withEvents)
	out.metrics = append(out.metrics,
		metric{Name: "sim.rounds", Value: float64(rounds), Unit: "count", Note: note, Moves: "sim_events_per_s · engine-sweep"},
		metric{Name: "sim.barrier_ms", Value: barrierMS, Unit: "ms", Note: note, Moves: "sim_events_per_s · engine-sweep"},
		metric{Name: "sim.lane_util", Value: ratio(util, float64(lanes)), Unit: "ratio", Note: note, Moves: "sim_events_per_s · engine-sweep"})
}

// engineOp runs one cell on a fresh runner with the given layers.
type engineOp struct {
	cfg   layers
	tr    *opTracer
	walls []wallprof.CellReport // every traced op's wallprof cells
}

func (o *engineOp) run(c engineCell) (runner.CellResult, error) {
	ot := o.tr.start("op")
	defer ot.finish()
	r := runner.New(1)
	var col *obs.Collector
	if o.cfg.obs {
		col = obs.NewCollector()
		r.Observe(col)
	}
	var wp *wallprof.Collector
	if o.cfg.wall {
		wp = wallprof.New()
		r.ProfileWall(wp)
	}
	var res runner.CellResult
	start, end, _ := ot.timed("runner.run", func() error {
		res = r.Run(context.Background(), []runner.Cell{c.Cell})[0]
		return nil
	})
	if wp != nil && ot != nil {
		rep := wp.Report()
		ot.addPhases(start, end, rep)
		o.walls = append(o.walls, rep.Cells...)
	}
	if col != nil {
		var rep *obs.RunReport
		ot.timed("obs.report", func() error { rep = col.Report(); return nil })
		if o.cfg.prof {
			ot.timed("prof.build", func() error { prof.Build(rep); return nil })
		}
	}
	return res, res.Err
}

type engineSetup struct {
	cells    []engineCell
	refs     map[string]cellRef
	expandMS float64
}

func runEngineSweep(e *env) (*outcome, error) {
	setup := func() (engineSetup, error) {
		var s engineSetup
		t0 := time.Now()
		cells, err := expandEngineCells()
		if err != nil {
			return s, err
		}
		s.expandMS = ms(time.Since(t0))
		s.cells = cells
		// The reference pass records each cell's exact outputs and doubles
		// as the warm-up.
		s.refs, err = referenceAll(e, cells)
		return s, err
	}
	s, setupT, err := timeSetups(5, setup, func(engineSetup) {})
	if err != nil {
		return nil, err
	}
	// Cells are dealt from a seeded deck: every cell comes up once per
	// deal, so each keeps its share of the ops whatever the seed.
	cards := newDeck(rand.New(rand.NewSource(e.seed)), len(s.cells))
	loop := func(d time.Duration, o *engineOp) window {
		var c engineCell
		var res runner.CellResult
		return closedLoop(d, func() (string, int, error) {
			c = s.cells[cards.next()]
			var err error
			res, err = o.run(c)
			return c.Family, s.refs[c.Key].Events, err
		}, func() bool {
			sha, err := resultDigest(res)
			return err == nil && sha == s.refs[c.Key].Result
		})
	}

	out := &outcome{}
	if !e.traced {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		w := loop(e.window, &engineOp{})
		runtime.ReadMemStats(&ms1)
		st := summarize(w.samples)
		out.count(st)
		rss, err := procStatusMB(os.Getpid(), "VmHWM")
		if err != nil {
			return nil, err
		}
		closedLoopMetrics(out, setupT, w, rss)
		out.add("alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(st.Attempted), "MB", "")
		return out, nil
	}

	cfgs := map[string]layers{
		"off": {}, "obs": {obs: true}, "prof": {obs: true, prof: true},
		"wallprof": {wall: true}, "traced": {wall: true},
	}
	names := []string{"off", "obs", "prof", "wallprof", "traced"}
	const rounds = 4
	slice := e.window / time.Duration(rounds*len(names))
	samples := map[string][]sample{}
	traced := &engineOp{cfg: cfgs["traced"], tr: newOpTracer()}
	var mallocs, offEvents, tracedEvents int
	alternate(rounds, names, func(name string) {
		o := &engineOp{cfg: cfgs[name]}
		if name == "traced" {
			o = traced
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w := loop(slice, o)
		runtime.ReadMemStats(&m1)
		out.count(summarize(w.samples))
		samples[name] = append(samples[name], w.samples...)
		switch name {
		case "off":
			mallocs += int(m1.Mallocs - m0.Mallocs)
			offEvents += eventsOf(w.samples)
		case "traced":
			tracedEvents += eventsOf(w.samples)
		}
	})
	p50 := func(name string) float64 { return median(latencies(samples[name], "")) }
	out.add("op_p50_ms.off", p50("off"), "ms", fmt.Sprintf("untraced, no observers, raw, n=%d", len(samples["off"])))
	out.add("cost_ratio.obs", p50("obs")/p50("off"), "ratio", "obs collector + report ÷ all off")
	out.add("cost_ratio.prof", p50("prof")/p50("off"), "ratio", "obs + prof.Build ÷ all off")
	out.add("cost_ratio.wallprof", p50("wallprof")/p50("off"), "ratio", "wallprof collector ÷ all off")

	if err := traced.tr.writeTraceFile(e.workload); err != nil {
		return nil, err
	}
	self := selfTimes(traced.tr.spans())
	simMS := ms(self["workload.simulate"].Total)
	buildMS := ms(self["gpusim.build"].Total)
	nOps := float64(self["op"].Count)
	ref, cov := refCounts(s.refs)
	out.layer("sweep.expand_ms", s.expandMS, "ms", "setup_s · engine-sweep")
	out.layer("runner.cells_computed", 1, "count", "op_p50_ms · engine-sweep (one fresh runner per op)")
	out.add("runner.memo_hits", 0, "count", "none by construction: a fresh runner per op")
	out.layer("gpusim.build_ms", buildMS/nOps, "ms", "op_p50_ms, alloc_mb_per_op · engine-sweep")
	out.layer("gpusim.build_share", ratio(buildMS, buildMS+simMS), "ratio", "op_p50_ms · engine-sweep")
	out.layer("workload.simulate_ms", simMS/nOps, "ms", "op_p50_ms · engine-sweep")
	out.add("sim.events", float64(ref.events), "count", fmt.Sprintf("exact, one deal of %d cells; must not move on a speed-only change", ref.cells))
	out.layer("sim.events_per_simulate_s", ratio(float64(tracedEvents), simMS/1e3), "1/s", "sim_events_per_s · engine-sweep")
	out.layerNote("sim.allocs_per_event", ratio(float64(mallocs), float64(offEvents)), "count", "heap allocations per event, all layers off", "alloc_mb_per_op · engine-sweep")
	// Rounds and barriers are counted over one deal: the last traced run
	// of each distinct cell.
	perCell := map[string]wallprof.CellReport{}
	for _, wc := range traced.walls {
		perCell[wc.Name()] = wc
	}
	var oneDeal wallprof.Report
	for _, k := range sortedKeys(perCell) {
		oneDeal.Cells = append(oneDeal.Cells, perCell[k])
	}
	engineLayerMetrics(out, &oneDeal, cov)
	out.add("fabric.flows", ref.flows, "count", "exact, one deal; must not move")
	out.add("fabric.bytes", ref.bytes, "B", "exact, one deal; must not move")
	out.add("fabric.hops", ref.hops, "count", "exact, one deal; must not move")
	out.layer("fabric.host_us_per_flow", ratio(simMS*1e3*float64(ref.cells)/nOps, ref.flows), "us", "op_tail_ms, ops_per_s · engine-sweep")
	for _, fam := range engineFamilies {
		out.layerNote("engine.family_ms."+fam, median(latencies(samples["off"], fam)), "ms", "median op, all layers off, raw", "op_tail_ms, ops_per_s · engine-sweep")
	}
	out.add("wallprof.engine_coverage", cov.share(), "ratio", "share of cells with events whose engine wallprof instrumented")
	out.layerNote("obs.report_ms", ms(meanReport(s.refs)), "ms", "per cell, from the reference pass", "no end-to-end metric here: no observers on the timed path")
	out.add("bench.op_self_ms", ms(self["op"].Self)/nOps, "ms", "benchmark code between layer calls")
	out.add("bench.trace_overhead", p50("traced")/p50("off"), "ratio", "traced ÷ untraced op_p50_ms")
	return out, nil
}

// latencies returns the latencies in ms of the samples of one kind, or of
// every sample when kind is "".
func latencies(samples []sample, kind string) []float64 {
	var out []float64
	for _, s := range samples {
		if kind == "" || s.Kind == kind {
			out = append(out, ms(s.Latency))
		}
	}
	return out
}

// meanReport is the mean time the reference pass spent in obs Report and
// WriteMetrics per cell.
func meanReport(refs map[string]cellRef) time.Duration {
	var t time.Duration
	for _, r := range refs {
		t += r.reportTime
	}
	return t / time.Duration(max(len(refs), 1))
}

func eventsOf(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.Events
	}
	return n
}
