// Command perfbench is the pvcsim benchmark. It drives the simulator from
// outside, through the exported APIs of its packages and over loopback
// HTTP against a pvcd daemon built from the same tree, and reports host
// time: how long the simulator takes, never what it simulates. Every
// simulated output is checked exactly against digests recorded at seed
// (expected.json).
//
// Run it from the repository root through the wrapper, which builds this
// command and pvcd first:
//
//	bash perfbench/run.sh --workload paper-artifacts --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-artifacts, engine-sweep, pvcd-serve (see BENCHMARK.json
// for why each exists). --trace 0 prints the end-to-end metrics; --trace 1
// makes a separate traced run and prints the per-layer metrics, the cost of
// each optional layer and the tracing overhead. The last line of standard
// output is a JSON object {correct, attempted, failed, metrics}; the lines
// before it name every metric with its unit. Every end-to-end timing and
// rate is scaled to a reference host speed by a calibration kernel run
// between ops (calib.go); the raw figure is printed beside it. --record
// rewrites expected.json from the current tree and is only for recording a
// new seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The benchmark runs from the repository root. run.sh builds pvcd into
// buildDir beside this command.
const (
	buildDir     = ".bench_build"
	pvcdPath     = buildDir + "/pvcd"
	expectedPath = "perfbench/expected.json"
)

// env is what every workload gets: where to work, what to run, and the
// recorded outputs to check against.
type env struct {
	work     string // scratch directory for outputs, removed at exit
	workload string
	seed     int64
	window   time.Duration // --seconds
	traced   bool
	record   bool
	exp      *expected
}

// metric is one reported number. Moves names the end-to-end metric and
// workload a per-layer metric should move; NA marks a layer the workload
// cannot see, printed as "not instrumented" with Note saying why.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
	Moves string
	NA    bool
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	metrics           []metric
}

func (o *outcome) add(name string, v float64, unit, note string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (o *outcome) layer(name string, v float64, unit, moves string) {
	o.layerNote(name, v, unit, "", moves)
}

func (o *outcome) layerNote(name string, v float64, unit, note, moves string) {
	o.metrics = append(o.metrics, metric{Name: name, Value: v, Unit: unit, Note: note, Moves: moves})
}

func (o *outcome) notInstrumented(name, unit, why string) {
	o.metrics = append(o.metrics, metric{Name: name, Unit: unit, Note: why, NA: true})
}

func (o *outcome) count(st loadStats) {
	o.attempted += st.Attempted
	o.failed += st.Failed
}

var workloads = map[string]func(*env) (*outcome, error){
	"paper-artifacts": runPaperArtifacts,
	"engine-sweep":    runEngineSweep,
	"pvcd-serve":      runPVCDServe,
}

func main() {
	ok, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run runs one workload from the repository root and reports whether every
// output check passed.
func run() (bool, error) {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: paper-artifacts, engine-sweep or pvcd-serve")
	seed := flags.Int64("seed", 1, "workload seed")
	seconds := flags.Float64("seconds", 30, "length of the measured window in seconds")
	trace := flags.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	record := flags.Bool("record", false, "rewrite expected.json from this tree instead of checking against it")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return false, err
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return false, errors.New("need --workload paper-artifacts|engine-sweep|pvcd-serve, --seconds > 0 and --trace 0|1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	e := &env{
		work: work, workload: *name, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, record: *record,
	}
	// Recording keeps what other workloads recorded before.
	if e.exp, err = loadExpected(expectedPath); errors.Is(err, fs.ErrNotExist) && e.record {
		e.exp, err = newExpected(), nil
	}
	if err != nil {
		return false, err
	}
	tree, err := treeDigest(".")
	if err != nil {
		return false, err
	}

	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf("."), tree)
	fmt.Printf("workload %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	out, err := fn(e)
	if err != nil {
		return false, err
	}
	if e.record {
		if err := e.exp.save(expectedPath); err != nil {
			return false, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: recorded", expectedPath)
	}
	want := spec.EndToEnd
	if e.traced {
		want = spec.PerLayer
		markUnexercised(out, *name)
	}
	printMetrics(out.metrics)
	line, err := resultLine(out, want)
	if err != nil {
		return false, err
	}
	fmt.Println(line)
	return out.failed == 0, nil
}

// layerMetrics names every per-layer metric the benchmark defines. A traced
// run lists the ones its workload does not reach as not instrumented, so
// each workload's report says which layers it should leave unchanged.
var layerMetrics = []string{
	"sweep.expand_ms", "runner.cells_computed", "runner.memo_hits",
	"gpusim.build_ms", "gpusim.build_share", "workload.simulate_ms",
	"sim.events", "sim.events_per_simulate_s", "sim.allocs_per_event", "sim.rounds", "sim.barrier_ms", "sim.lane_util",
	"fabric.flows", "fabric.bytes", "fabric.hops", "fabric.host_us_per_flow",
	"engine.family_ms.allreduce", "engine.family_ms.clover-strong", "engine.family_ms.clover-scaling",
	"wallprof.engine_coverage",
	"obs.report_ms", "obs.metrics_write_ms", "obs.trace_write_ms", "obs.trace_bytes",
	"prof.build_ms", "prof.write_ms", "core.prefetch_ms", "core.render_ms",
	"pvcd.submit_ms.p50", "pvcd.submit_ms.tail", "pvcd.repeat_ms.p50", "pvcd.repeat_ms.tail",
	"pvcd.read_ms.p50", "pvcd.read_ms.tail", "pvcd.cache_hit_ratio", "pvcd.rss_mb_per_1k_runs",
	"reqtrace.queue_wait_ms", "reqtrace.run_self_ms", "reqtrace.export_ms",
	"history.read_ms", "history.bytes_per_run",
	"bench.gen_late_ms.tail", "bench.trace_overhead",
}

func markUnexercised(out *outcome, workload string) {
	have := map[string]bool{}
	for _, m := range out.metrics {
		have[m.Name] = true
	}
	for _, name := range layerMetrics {
		if !have[name] {
			out.notInstrumented(name, "", "not exercised by "+workload+"; should stay unchanged")
		}
	}
}

// benchSpec is the part of BENCHMARK.json that decides which metrics go on
// the result line.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultLine renders the final JSON object with the metrics BENCHMARK.json
// lists, failing if the workload did not measure one of them.
func resultLine(out *outcome, want []struct{ Name, Unit string }) (string, error) {
	byName := map[string]metric{}
	for _, m := range out.metrics {
		byName[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, w := range want {
		m, ok := byName[w.Name]
		if !ok || m.NA {
			return "", fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return "", fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		metrics[w.Name] = value{m.Value, m.Unit}
	}
	attempted := out.attempted
	if attempted < 1 {
		return "", errors.New("no op was attempted")
	}
	data, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return string(data), err
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		if m.NA {
			fmt.Printf("  %-34s not instrumented (%s)\n", m.Name, m.Note)
			continue
		}
		var extra []string
		if m.Note != "" {
			extra = append(extra, m.Note)
		}
		if m.Moves != "" {
			extra = append(extra, "moves "+m.Moves)
		}
		line := fmt.Sprintf("  %-34s %14.6g %-8s %s", m.Name, m.Value, m.Unit, strings.Join(extra, "; "))
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// setupTime is the median time of repeated set-ups, scaled to the
// reference host speed by kernel reps taken between them.
type setupTime struct {
	S, RawS, CalMS float64
	N              int
}

func (t setupTime) note() string {
	return fmt.Sprintf("median of %d set-ups, %s", t.N, calNote(t.RawS, t.CalMS, "s"))
}

// timeSetups runs setup n times and returns the last result with the
// median set-up time; every earlier result is torn down first. Repeating
// set-up gives setup_s a median rather than one noisy sample. The kernel
// reps between set-ups are not part of the timed set-up.
func timeSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, setupTime, error) {
	var last T
	var secs []float64
	cal := []float64{calibrate(50 * time.Millisecond)}
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, setupTime{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		cal = append(cal, calibrate(50*time.Millisecond))
		last = v
	}
	t := setupTime{RawS: median(secs), CalMS: median(cal), N: n}
	t.S = t.RawS * speedScale(t.CalMS)
	return last, t, nil
}

// procStatusMB reads one kB field of /proc/<pid>/status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// treeDigest hashes the paths and contents of the checkout's Go sources
// and module files, naming the benchmarked code when there is no commit.
func treeDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

// commitOf names the benchmarked tree: the git commit when the checkout is
// a repository, otherwise "none".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "none"
}
