package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pvcsim/internal/core"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/wallprof"
)

// layers selects the optional layers attached to an op. The end-to-end
// paper-artifacts op runs with obs and prof, as `make artifacts` plus the
// bench exports do; the other settings exist to price each layer.
type layers struct {
	obs, prof, wall bool
}

// paperOp regenerates the full artifact set once on a fresh study and
// writes the metrics JSON, Chrome trace and profile beside it.
type paperOp struct {
	dir string
	cfg layers
	tr  *opTrace

	// Filled by the op when the matching layer is attached.
	stats      *runner.Stats
	wall       *wallprof.Report
	rep        *obs.RunReport
	traceBytes int64
}

func (p *paperOp) run() error {
	defer p.tr.finish()
	st := core.NewStudy()
	var col *obs.Collector
	if p.cfg.obs {
		col = obs.NewCollector()
		st.Runner().Observe(col)
	}
	var wp *wallprof.Collector
	if p.cfg.wall {
		wp = wallprof.New()
		st.Runner().ProfileWall(wp)
	}
	if p.tr != nil {
		p.stats = &runner.Stats{}
		st.Runner().AddHooks(p.stats)
	}
	start, end, err := p.tr.timed("core.prefetch", func() error { return st.Prefetch(context.Background()) })
	if err != nil {
		return err
	}
	if wp != nil {
		p.wall = wp.Report()
		p.tr.addPhases(start, end, p.wall)
	}
	if _, _, err := p.tr.timed("core.render", func() error { return st.WriteAllArtifacts(p.dir) }); err != nil {
		return err
	}
	if col == nil {
		return nil
	}
	p.tr.timed("obs.report", func() error { p.rep = col.Report(); return nil })
	if err := p.write("obs.metrics_write", "metrics.json", p.rep.WriteMetrics); err != nil {
		return err
	}
	if err := p.write("obs.trace_write", "trace.json", p.rep.WriteChromeTrace); err != nil {
		return err
	}
	if p.tr != nil {
		fi, err := os.Stat(filepath.Join(p.dir, "trace.json"))
		if err != nil {
			return err
		}
		p.traceBytes = fi.Size()
	}
	if !p.cfg.prof {
		return nil
	}
	var pr *prof.Profile
	p.tr.timed("prof.build", func() error { pr = prof.Build(p.rep); return nil })
	return p.write("prof.write", "profile.json", pr.WriteJSON)
}

func (p *paperOp) write(spanName, file string, render func(io.Writer) error) error {
	_, _, err := p.tr.timed(spanName, func() error { return writeFile(filepath.Join(p.dir, file), render) })
	return err
}

func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// addPhases lays wallprof's per-cell build and simulate phases out as
// spans back to back from start, clipped at end: with one job the runner
// computes cells one after another, so their sum is what the enclosing
// span's interval holds.
func (o *opTrace) addPhases(start, end int64, rep *wallprof.Report) {
	if o == nil {
		return
	}
	at := start
	for _, c := range rep.Cells {
		b := min(at+int64(c.BuildMS*1e6), end)
		s := min(b+int64(c.SimulateMS*1e6), end)
		o.tr.AddSpanAt("gpusim.build", "", at, b)
		o.tr.AddSpanAt("workload.simulate", "", b, s)
		at = s
	}
}

// digestDir hashes every regular file in dir. It streams each file through
// one reused buffer so the check adds little garbage for the next timed op's
// collector to clear.
func digestDir(dir string) (map[string]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	buf := make([]byte, 64<<10)
	for _, de := range ents {
		if !de.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		_, err = io.CopyBuffer(h, f, buf)
		f.Close()
		if err != nil {
			return nil, err
		}
		out[de.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// sameDigests reports whether got holds exactly the files of want with the
// same digests.
func sameDigests(got, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// paperErrGeomean is the geometric mean of |relative error| over every
// published number the study regenerates. Exact matches are left out: one
// would send the mean to zero and hide every other error.
func paperErrGeomean(st *core.Study) (float64, int, error) {
	exps, err := st.Experiments()
	if err != nil {
		return 0, 0, err
	}
	logSum, n := 0.0, 0
	for _, x := range exps {
		if re := x.RelErr(); re > 0 {
			logSum += math.Log(re)
			n++
		}
	}
	if n == 0 {
		return 0, 0, nil
	}
	return math.Exp(logSum / float64(n)), n, nil
}

type paperSetup struct {
	dir      string
	expandMS float64
	geomean  float64
	nExp     int
}

// blankDir truncates every regular file in dir to zero length, so a file
// the next op does not write reads as empty and fails its digest. The
// files are kept rather than removed: unlinking and re-creating a few
// dozen files per op churns the file system enough to slow later ops.
func blankDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if de.Type().IsRegular() {
			if err := os.Truncate(filepath.Join(dir, de.Name()), 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func runPaperArtifacts(e *env) (*outcome, error) {
	full := layers{obs: true, prof: true}
	setup := func() (paperSetup, error) {
		var s paperSetup
		s.dir = filepath.Join(e.work, "artifacts")
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return s, err
		}
		t0 := time.Now()
		for _, f := range sweep.DefaultFamilies() {
			if _, err := f.Expand(nil); err != nil {
				return s, err
			}
		}
		s.expandMS = ms(time.Since(t0))
		// Two warm-up ops fill the page cache and grow the heap to its
		// steady size; the second, into blanked files, is checked like a
		// timed op.
		for i := 0; i < 2; i++ {
			if err := blankDir(s.dir); err != nil {
				return s, err
			}
			op := &paperOp{dir: s.dir, cfg: full}
			if err := op.run(); err != nil {
				return s, err
			}
		}
		got, err := digestDir(s.dir)
		if err != nil {
			return s, err
		}
		s.geomean, s.nExp, err = paperErrGeomean(core.NewStudy())
		if err != nil {
			return s, err
		}
		if e.record {
			e.exp.Artifacts, e.exp.PaperErrGeomean = got, s.geomean
		} else if !sameDigests(got, e.exp.Artifacts) {
			return s, fmt.Errorf("artifact digests differ from expected.json")
		} else if s.geomean != e.exp.PaperErrGeomean {
			return s, fmt.Errorf("paper_err_geomean %v differs from expected.json %v", s.geomean, e.exp.PaperErrGeomean)
		}
		return s, blankDir(s.dir)
	}
	s, setupT, err := timeSetups(7, setup, func(paperSetup) {})
	if err != nil {
		return nil, err
	}

	// check digests the files an op with the given layers wrote, then
	// blanks them for the next op; a missing, unwritten or differing file
	// fails the op. Exports of layers left off are not checked.
	check := func(cfg layers) bool {
		got, err := digestDir(s.dir)
		if err != nil || blankDir(s.dir) != nil {
			return false
		}
		for name, want := range e.exp.Artifacts {
			off := (name == "metrics.json" || name == "trace.json") && !cfg.obs || name == "profile.json" && !cfg.prof
			if !off && got[name] != want {
				return false
			}
		}
		return true
	}
	out := &outcome{}
	if !e.traced {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		w := closedLoop(e.window, func() (string, int, error) {
			op := &paperOp{dir: s.dir, cfg: full}
			if err := op.run(); err != nil {
				return "artifacts", 0, err
			}
			return "artifacts", countEngine(op.rep.Cells).events, nil
		}, func() bool { return check(full) })
		runtime.ReadMemStats(&ms1)
		st := summarize(w.samples)
		out.count(st)
		rss, err := procStatusMB(os.Getpid(), "VmHWM")
		if err != nil {
			return nil, err
		}
		closedLoopMetrics(out, setupT, w, rss)
		out.add("alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(st.Attempted), "MB", "")
		out.add("paper_err_geomean", s.geomean, "ratio", fmt.Sprintf("over %d published numbers, exact match checked", s.nExp))
		return out, nil
	}

	// Traced run: price each optional layer against the all-off op, then
	// trace the end-to-end op.
	cfgs := map[string]layers{
		"e2e": full, "off": {}, "obs": {obs: true},
		"wallprof": {wall: true}, "traced": {obs: true, prof: true, wall: true},
	}
	names := []string{"e2e", "off", "obs", "wallprof", "traced"}
	const rounds = 4
	slice := e.window / time.Duration(rounds*len(names))
	lat := map[string][]float64{}
	tr := newOpTracer()
	var last *paperOp
	alternate(rounds, names, func(name string) {
		cfg := cfgs[name]
		w := closedLoop(slice, func() (string, int, error) {
			op := &paperOp{dir: s.dir, cfg: cfg}
			if name == "traced" {
				op.tr, last = tr.start("op"), op
			}
			return name, 0, op.run()
		}, func() bool { return check(cfg) })
		out.count(summarize(w.samples))
		lat[name] = append(lat[name], latencies(w.samples, "")...)
	})
	p50 := func(name string) float64 { return median(lat[name]) }
	out.add("op_p50_ms.e2e", p50("e2e"), "ms", fmt.Sprintf("untraced, raw, n=%d", len(lat["e2e"])))
	out.add("op_p50_ms.off", p50("off"), "ms", fmt.Sprintf("all optional layers off, raw, n=%d", len(lat["off"])))
	out.add("cost_ratio.obs", p50("obs")/p50("off"), "ratio", "obs collector + report + metrics/trace writes ÷ all off")
	out.add("cost_ratio.prof", p50("e2e")/p50("off"), "ratio", "obs + prof (prof needs the obs report) ÷ all off")
	out.add("cost_ratio.wallprof", p50("wallprof")/p50("off"), "ratio", "wallprof collector ÷ all off")

	if err := tr.writeTraceFile(e.workload); err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans())
	nOps := float64(self["op"].Count)
	perOp := func(name string) float64 { return ms(self[name].Self) / nOps }
	out.layer("sweep.expand_ms", s.expandMS, "ms", "setup_s · engine-sweep")
	out.layer("runner.cells_computed", float64(last.stats.Computed()), "count", "op_p50_ms · paper-artifacts")
	out.layer("runner.memo_hits", float64(last.stats.CacheHits()), "count", "op_p50_ms · paper-artifacts")
	build, simulate := perOp("gpusim.build"), perOp("workload.simulate")
	out.layer("gpusim.build_ms", build, "ms", "op_p50_ms, alloc_mb_per_op · paper-artifacts")
	out.layer("gpusim.build_share", ratio(build, build+simulate), "ratio", "op_p50_ms · paper-artifacts")
	out.layer("workload.simulate_ms", simulate, "ms", "op_p50_ms · paper-artifacts")
	ev := countEngine(last.rep.Cells)
	cov := coverageOf(last.rep.Cells, last.wall)
	out.add("sim.events", float64(ev.events), "count", "exact; must not move on a speed-only change")
	out.layer("sim.events_per_simulate_s", ratio(float64(ev.events), simulate/1e3), "1/s", "sim_events_per_s · engine-sweep")
	engineLayerMetrics(out, last.wall, cov)
	out.add("fabric.flows", ev.flows, "count", "exact; must not move")
	out.add("fabric.bytes", ev.bytes, "B", "exact; must not move")
	out.add("fabric.hops", ev.hops, "count", "exact; must not move")
	out.add("wallprof.engine_coverage", cov.share(), "ratio", "share of cells with events whose engine wallprof instrumented")
	out.layer("core.prefetch_ms", perOp("core.prefetch"), "ms", "op_p50_ms · paper-artifacts")
	out.layer("core.render_ms", perOp("core.render"), "ms", "op_p50_ms · paper-artifacts")
	out.layer("obs.report_ms", perOp("obs.report"), "ms", "op_p50_ms · paper-artifacts")
	out.layer("obs.metrics_write_ms", perOp("obs.metrics_write"), "ms", "op_p50_ms · paper-artifacts")
	out.layer("obs.trace_write_ms", perOp("obs.trace_write"), "ms", "op_p50_ms · paper-artifacts")
	out.layer("obs.trace_bytes", float64(last.traceBytes), "B", "op_p50_ms · paper-artifacts")
	out.layer("prof.build_ms", perOp("prof.build"), "ms", "op_p50_ms · paper-artifacts")
	out.layer("prof.write_ms", perOp("prof.write"), "ms", "op_p50_ms · paper-artifacts")
	out.add("bench.op_self_ms", perOp("op"), "ms", "benchmark code between layer calls")
	out.add("bench.trace_overhead", p50("traced")/p50("e2e"), "ratio", "traced ÷ untraced op_p50_ms")
	return out, nil
}

// closedLoopMetrics adds the end-to-end metrics every closed-loop workload
// reports. Latency and rates take each metric's median part of the window,
// scaled to the reference host speed; failures count over the whole window.
func closedLoopMetrics(out *outcome, setup setupTime, w window, rssMB float64) {
	st := summarize(w.samples)
	f := ofParts(partsByTime(w), median(w.cal))
	part := fmt.Sprintf("median of %d parts of %.0f s", f.Parts, (w.elapsed / subWindows).Seconds())
	out.add("setup_s", setup.S, "s", setup.note())
	out.add("op_p50_ms", f.P50, "ms", fmt.Sprintf("%s, %s; whole window raw %.4g", part, calNote(f.RawP50, f.CalMS, "ms"), st.P50))
	out.add("op_tail_ms", f.Tail, "ms", fmt.Sprintf("p%g, %d beyond in the smallest part of n=%d, %s, raw %.4g; whole window raw p%g %.4g",
		f.TailP, f.Beyond, f.N, part, f.RawTail, st.Tail.P, st.Tail.Value))
	out.add("ops_per_s", f.OpsPerS, "1/s", fmt.Sprintf("ops ÷ time in ops, %s, raw %.4g", part, f.RawOpsPerS))
	out.add("sim_events_per_s", f.EventsPerS, "1/s", fmt.Sprintf("events ÷ time in ops, %s, raw %.4g", part, f.RawEventsPerS))
	out.add("peak_rss_mb", rssMB, "MB", "VmHWM of the benchmark process")
	out.add("fail_ratio", st.failRatio(), "ratio", fmt.Sprintf("%d of %d", st.Failed, st.Attempted))
}
