package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pvcsim/internal/history"
	"pvcsim/internal/telemetry"
)

// The open-loop rates, in ops per second, of the pvcd-serve workload, set
// from the capacity first measured on a 2-CPU host: about 400 ops/s, where
// op_tail_ms passed the 100 ms limit. Low, mid and high are an eighth, a
// quarter and three quarters of it. Mid stays well below capacity because
// the client holds only nproc connections and a submit occupies one until
// its run is done. They are constants so every commit is measured at the
// same offered load; the saturation window measures the capacity of one
// connection (ops_per_s), which on the same host has read 160–400 ops/s
// raw as other tenants came and went.
const (
	rateLow  = 50
	rateMid  = 100
	rateHigh = 300
)

// latencyLimitMS is the op_tail_ms a rate must meet to count as served.
const latencyLimitMS = 100

// giveUp bounds how late an op may be sent before it is counted as
// refused instead, so an overloaded daemon cannot stretch the run.
const giveUp = 5 * time.Second

// daemon is one pvcd process the benchmark started.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dir     string
	history bool
	client  *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon boots pvcd with one job per run and, when withHistory, a
// journal in a fresh directory, and waits until it reports ready.
func startDaemon(e *env, withHistory bool, client *http.Client) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "pvcd-")
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-jobs", "1"}
	if withHistory {
		args = append(args, "-history", filepath.Join(dir, "history.jsonl"))
	}
	d := &daemon{cmd: exec.Command(pvcdPath, args...), base: "http://" + addr, dir: dir, history: withHistory, client: client}
	// The daemon must not outlive the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("pvcd did not become ready within 30s")
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if it does not within 15 s.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// do sends one request and returns the status and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// post submits an async run of one cell and returns its ID.
func (d *daemon) post(c engineCell) (string, error) {
	spec, _ := json.Marshal(map[string]any{"workload": c.Cell.Workload.Name(), "systems": []string{c.Cell.System.String()}})
	code, body, err := d.do("POST", "/v1/runs", spec)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", code, body)
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(body, &acc); err != nil {
		return "", err
	}
	return acc.ID, nil
}

// follow reads a run's SSE stream until run-done and checks it finished.
func (d *daemon) follow(id string) error {
	resp, err := d.client.Get(d.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	runEvent := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: run" {
			runEvent = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && runEvent {
			var ev struct{ Status string }
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return err
			}
			if ev.Status != "done" {
				return fmt.Errorf("run %s ended %q", id, ev.Status)
			}
			// The daemon ends the stream after run-done; reading it to
			// the end lets the client reuse the connection instead of
			// dialling a new one for a later op.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("run %s: event stream ended before run-done", id)
}

// submit posts a cell and follows it to run-done.
func (d *daemon) submit(c engineCell) (string, error) {
	id, err := d.post(c)
	if err != nil {
		return "", err
	}
	return id, d.follow(id)
}

// repeat posts a wait-mode run of a spec that has already completed; the
// completed-run cache must answer it.
func (d *daemon) repeat(c engineCell) error {
	spec, _ := json.Marshal(map[string]any{"workload": c.Cell.Workload.Name(), "systems": []string{c.Cell.System.String()}, "wait": true})
	code, body, err := d.do("POST", "/v1/runs", spec)
	if err != nil {
		return err
	}
	var st struct {
		Status string
		Cached bool
	}
	if code != http.StatusOK || json.Unmarshal(body, &st) != nil || st.Status != "done" || !st.Cached {
		return fmt.Errorf("repeat: status %d, body %.200s", code, body)
	}
	return nil
}

// checkRunMetrics fetches a finished run's obs export and compares it with
// the in-process export of the same cell.
func (d *daemon) checkRunMetrics(id string, want []byte) error {
	code, body, err := d.do("GET", "/v1/runs/"+id+"/metrics", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !bytes.Equal(body, want) {
		return fmt.Errorf("run %s metrics differ from the in-process export (status %d)", id, code)
	}
	return nil
}

// readHistory fetches the last 50 journal records; a daemon without a
// journal must answer 404.
func (d *daemon) readHistory() error {
	code, body, err := d.do("GET", "/v1/history?limit=50", nil)
	if err != nil {
		return err
	}
	if !d.history {
		if code != http.StatusNotFound {
			return fmt.Errorf("history without a journal: status %d", code)
		}
		return nil
	}
	var h struct {
		SchemaVersion int `json:"schema_version"`
		Count         int
		Records       []json.RawMessage
	}
	if code != http.StatusOK || json.Unmarshal(body, &h) != nil || h.SchemaVersion != history.SchemaVersion ||
		h.Count < 1 || h.Count > 50 || h.Count != len(h.Records) {
		return fmt.Errorf("history: status %d, body %.200s", code, body)
	}
	return nil
}

// scrape fetches /metrics and parses it strictly.
func (d *daemon) scrape() (map[string]*telemetry.Family, error) {
	code, body, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return telemetry.ParseMetrics(bytes.NewReader(body))
}

// counter sums a family's samples.
func counter(fams map[string]*telemetry.Family, name string) float64 {
	f, ok := fams[name]
	if !ok {
		return 0
	}
	t := 0.0
	for _, s := range f.Samples {
		t += s.Value
	}
	return t
}

// opPlan is one planned op of the traffic mix.
type opPlan struct {
	kind string // submit, repeat, read.metrics, read.history, read.prom
	cell int    // submit/repeat: index into the cells; read.metrics: warm run
}

// opMix is one block of the traffic mix: a quarter submits, a quarter
// repeats and half reads spread evenly over the three read routes.
var opMix = []string{
	"submit", "submit", "submit", "repeat", "repeat", "repeat",
	"read.metrics", "read.metrics", "read.history", "read.history", "read.prom", "read.prom",
}

// deck deals the indices 0..n-1 in a seeded order, reshuffling after each
// full deal, so every index comes up equally often.
type deck struct {
	rng   *rand.Rand
	order []int
	pos   int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, order: make([]int, n)}
	for i := range d.order {
		d.order[i] = i
	}
	d.pos = n
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	d.pos++
	return d.order[d.pos-1]
}

// planOps lays out n ops. The seed picks the order of the ops within each
// block of opMix and the order in which cells come up; the shares of each
// op kind and of each cell are the same for every seed, so a seed changes
// the arrangement of the traffic but not how much work it holds.
func planOps(rng *rand.Rand, n, cells int) []opPlan {
	kinds := newDeck(rng, len(opMix))
	byKind := map[string]*deck{}
	out := make([]opPlan, n)
	for i := range out {
		kind := opMix[kinds.next()]
		cd, ok := byKind[kind]
		if !ok {
			cd = newDeck(rng, cells)
			byKind[kind] = cd
		}
		out[i] = opPlan{kind: kind, cell: cd.next()}
	}
	return out
}

// serveState is a warm daemon plus everything needed to check its answers.
type serveState struct {
	d       *daemon
	cells   []engineCell
	refs    map[string]cellRef
	warmIDs []string // run ID of each cell's warm-up submit
	rssWarm float64  // daemon VmRSS after warm-up, MB
}

// warm boots a daemon and submits every cell once, checking each export;
// afterwards every cell's spec is in the completed-run cache.
func warm(e *env, withHistory bool, client *http.Client, cells []engineCell, refs map[string]cellRef) (*serveState, error) {
	d, err := startDaemon(e, withHistory, client)
	if err != nil {
		return nil, err
	}
	s := &serveState{d: d, cells: cells, refs: refs}
	for _, c := range cells {
		id, err := d.submit(c)
		if err == nil {
			err = d.checkRunMetrics(id, refs[c.Key].metricsJSON)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up %s: %w", c.Key, err)
		}
		s.warmIDs = append(s.warmIDs, id)
	}
	if s.rssWarm, err = procStatusMB(d.cmd.Process.Pid, "VmRSS"); err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// phase is one window's samples plus what its submits ran.
type phase struct {
	samples []sample
	elapsed time.Duration
	events  int
	flows   [3]float64 // fabric flows, bytes, hops
	submits int
	runIDs  map[string]bool
}

// driver sends the ops of a plan, calling op(i) for each op i it sends.
type driver func(op func(i int) (kind string, failed bool)) ([]sample, time.Duration)

// openAt drives an open loop at rate ops per second for d.
func openAt(rate float64, d time.Duration) driver {
	return func(op func(int) (string, bool)) ([]sample, time.Duration) {
		return openLoop(rate, d, runtime.NumCPU(), giveUp, op)
	}
}

// satConns is how many connections the saturation window keeps busy. One
// keeps the daemon always at work on the next op while the client and the
// daemon take turns on the host's cores: with a connection per core they
// contend for them, and on the shared host that contention, not the
// daemon's work, moved the rates from run to run.
const satConns = 1

// saturated keeps satConns connections busy for d, or until n ops are sent.
func saturated(d time.Duration, n int) driver {
	return func(op func(int) (string, bool)) ([]sample, time.Duration) {
		return saturate(d, satConns, n, op)
	}
}

// runPhase sends the plan's ops with drive, then checks every submitted
// run's export against the in-process one.
func (s *serveState) runPhase(drive driver, plan []opPlan, tr *opTracer) phase {
	runIDs := make([]string, len(plan)) // each op writes only its own slot
	samples, elapsed := drive(func(i int) (string, bool) {
		p := plan[i]
		ot := tr.start("op." + p.kind)
		defer ot.finish()
		call := func(name string, f func() error) error {
			_, _, err := ot.timed(name, f)
			return err
		}
		var err error
		switch p.kind {
		case "submit":
			var id string
			err = call("http.submit", func() error {
				var e error
				id, e = s.d.post(s.cells[p.cell])
				return e
			})
			if err == nil {
				err = call("http.events", func() error { return s.d.follow(id) })
			}
			if err == nil {
				runIDs[i] = id
			}
		case "repeat":
			err = call("http.repeat", func() error { return s.d.repeat(s.cells[p.cell]) })
		case "read.metrics":
			err = call("http.run_metrics", func() error {
				return s.d.checkRunMetrics(s.warmIDs[p.cell], s.refs[s.cells[p.cell].Key].metricsJSON)
			})
		case "read.history":
			err = call("http.history", s.d.readHistory)
		case "read.prom":
			err = call("http.metrics", func() error {
				code, _, e := s.d.do("GET", "/metrics", nil)
				if e == nil && code != http.StatusOK {
					e = fmt.Errorf("/metrics: status %d", code)
				}
				return e
			})
		}
		return p.kind, err != nil
	})
	ph := phase{samples: samples, elapsed: elapsed, runIDs: map[string]bool{}}
	for i, id := range runIDs {
		if id == "" {
			continue
		}
		ph.runIDs[id] = true
		c := s.cells[plan[i].cell]
		ref := s.refs[c.Key]
		if err := s.d.checkRunMetrics(id, ref.metricsJSON); err != nil {
			samples[i].Failed = true
			continue
		}
		ph.submits++
		ph.events += ref.Events
		ph.flows[0] += ref.Flows
		ph.flows[1] += ref.Bytes
		ph.flows[2] += ref.Hops
	}
	return ph
}

// satSlices is how many slices the saturation window is cut into. More and
// shorter slices than a closed loop's parts, so that a stretch of seconds
// in which the shared host runs slower or faster than the rest of the
// window moves few slices and few calibration bursts, and not the medians.
const satSlices = 12

// inSlices runs slice n times back to back, each time after a short burst
// of calibration kernel reps taken while the daemon is idle, and once more
// after the last. It returns the slices and the median burst, which
// follows the host's speed through the whole window; a rep taken during a
// slice would contend with the load and read slow.
func inSlices(n int, slice func() phase) ([]phase, float64) {
	var phs []phase
	var cal []float64
	for k := 0; k < n; k++ {
		cal = append(cal, calibrate(100*time.Millisecond))
		phs = append(phs, slice())
	}
	return phs, median(append(cal, calibrate(100*time.Millisecond)))
}

// joinPhases sums phases run one after another.
func joinPhases(phs []phase) phase {
	out := phase{runIDs: map[string]bool{}}
	for _, ph := range phs {
		out.samples = append(out.samples, ph.samples...)
		out.elapsed += ph.elapsed
		out.events += ph.events
		out.submits += ph.submits
		for i := range out.flows {
			out.flows[i] += ph.flows[i]
		}
		for id := range ph.runIDs {
			out.runIDs[id] = true
		}
	}
	return out
}

// sliceRates returns the median over slices of concurrent ops of their
// rates of completed ops and of simulated events, scaled by calMS.
func sliceRates(phs []phase, calMS float64) partFigures {
	f := partFigures{Parts: len(phs)}
	var ops, events []float64
	for _, ph := range phs {
		completed := 0
		for _, s := range ph.samples {
			if !s.Failed {
				completed++
			}
		}
		ops = append(ops, float64(completed)/ph.elapsed.Seconds())
		events = append(events, float64(ph.events)/ph.elapsed.Seconds())
	}
	f.RawOpsPerS, f.RawEventsPerS = median(ops), median(events)
	f.scale(calMS)
	return f
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

func runPVCDServe(e *env) (*outcome, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	// The in-process references are the benchmark's expected answers, not
	// daemon set-up, so they are computed once before set-up is timed.
	t0 := time.Now()
	cells, err := expandEngineCells()
	if err != nil {
		return nil, err
	}
	expandMS := ms(time.Since(t0))
	refs, err := referenceAll(e, cells)
	if err != nil {
		return nil, err
	}
	setup := func() (*serveState, error) { return warm(e, true, client, cells, refs) }
	s, setupT, err := timeSetups(3, setup, func(s *serveState) { s.d.stop() })
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	rng := rand.New(rand.NewSource(e.seed))
	plan := func(rate float64, d time.Duration) []opPlan {
		return planOps(rng, max(int(rate*d.Seconds()), 1), len(cells))
	}

	out := &outcome{}
	if !e.traced {
		// Each rate gets its share of the window; the saturation window
		// comes last so the runs it adds cannot slow the rated windows. It
		// gets the largest share, as the gated figures come from it.
		rates := []struct {
			name string
			rate float64
			frac float64
		}{{"low", rateLow, 0.06}, {"mid", rateMid, 0.3}, {"high", rateHigh, 0.1}}
		var midStats loadStats
		maxOK := 0.0
		for _, r := range rates {
			d := time.Duration(float64(e.window) * r.frac)
			ph := s.runPhase(openAt(r.rate, d), plan(r.rate, d), nil)
			st := summarize(ph.samples)
			out.count(st)
			if st.Failed == 0 && st.Tail.Value <= latencyLimitMS && !st.Backlog {
				maxOK = r.rate
			}
			if r.name == "mid" {
				midStats = st
			}
			out.add("op_p50_ms."+r.name, st.P50, "ms", fmt.Sprintf("at %d ops/s, from due time, raw, n=%d", int(r.rate), st.Attempted))
			out.add("op_tail_ms."+r.name, st.Tail.Value, "ms", fmt.Sprintf("raw, p%g of n=%d, %d beyond", st.Tail.P, st.Tail.N, st.Tail.Beyond))
		}
		// The saturation plan holds more ops than the daemon can serve in a
		// slice: capacity has not passed 1500 ops/s on a 2-CPU host.
		satSlice := time.Duration(float64(e.window) * 0.54 / satSlices)
		satPhases, satCal := inSlices(satSlices, func() phase {
			p := plan(10*rateHigh, satSlice)
			return s.runPhase(saturated(satSlice, len(p)), p, nil)
		})
		sat := joinPhases(satPhases)
		out.count(summarize(sat.samples))
		rss, err := procStatusMB(s.d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		out.add("setup_s", setupT.S, "s", setupT.note()+" (daemon boots + warm-ups)")
		// The gated latency is the daemon's at saturation, each metric its
		// median over the slices. At the open-loop rates the daemon idles
		// between requests and a 0.5 ms read is mostly the host waking it:
		// on the shared host that moved op_p50_ms.mid by 20–40% from run to
		// run, while the daemon's own work stayed the same.
		var parts [][]sample
		for _, ph := range satPhases {
			parts = append(parts, ph.samples)
		}
		f := ofParts(parts, satCal)
		sf := sliceRates(satPhases, satCal)
		satNote := fmt.Sprintf("at saturation (%d connection, median of %d slices of %.1f s, %d submits in all)",
			satConns, len(satPhases), satSlice.Seconds(), sat.submits)
		out.add("op_p50_ms", f.P50, "ms", fmt.Sprintf("%s, %s", satNote, calNote(f.RawP50, satCal, "ms")))
		out.add("op_tail_ms", f.Tail, "ms", fmt.Sprintf("p%g, %d beyond in the smallest slice of n=%d, %s, raw %.4g", f.TailP, f.Beyond, f.N, satNote, f.RawTail))
		out.add("ops_per_s", sf.OpsPerS, "1/s", fmt.Sprintf("completed ops of the mix %s, raw %.4g", satNote, sf.RawOpsPerS))
		out.add("sim_events_per_s", sf.EventsPerS, "1/s", fmt.Sprintf("events of the submits served %s, raw %.4g", satNote, sf.RawEventsPerS))
		out.add("peak_rss_mb", rss, "MB", "VmHWM of the daemon")
		out.add("fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio", fmt.Sprintf("%d of %d over all windows", out.failed, out.attempted))
		out.add("max_ok_rate_rps", maxOK, "1/s", fmt.Sprintf("highest of %d/%d/%d ops/s with op_tail_ms <= %d and no growing backlog", rateLow, rateMid, rateHigh, latencyLimitMS))
		out.add("bench.gen_late_ms.tail", midStats.Late.Value, "ms", fmt.Sprintf("at mid, p%g", midStats.Late.P))
		return out, nil
	}

	// Traced run: untraced, traced and journal-less windows at mid.
	bare, err := warm(e, false, client, cells, refs)
	if err != nil {
		return nil, err
	}
	defer bare.d.stop()
	const rounds = 2
	slice := e.window / (3 * rounds)
	before, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	phases := map[string][]phase{}
	tr := newOpTracer()
	var runSpans []span
	var spanErr error
	alternate(rounds, []string{"untraced", "traced", "nohistory"}, func(cfg string) {
		target, t := s, (*opTracer)(nil)
		switch cfg {
		case "traced":
			t = tr
		case "nohistory":
			target = bare
		}
		ph := target.runPhase(openAt(rateMid, slice), plan(rateMid, slice), t)
		out.count(summarize(ph.samples))
		phases[cfg] = append(phases[cfg], ph)
		if cfg == "traced" {
			sp, err := s.d.reqtraceSpans(ph.runIDs)
			if err != nil {
				spanErr = err
			}
			runSpans = append(runSpans, sp...)
		}
	})
	if spanErr != nil {
		return nil, spanErr
	}
	after, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	all := func(cfg string) []sample {
		var out []sample
		for _, ph := range phases[cfg] {
			out = append(out, ph.samples...)
		}
		return out
	}
	p50 := func(cfg string) float64 { return median(latencies(all(cfg), "")) }
	out.add("op_p50_ms.untraced", p50("untraced"), "ms", fmt.Sprintf("at mid, raw, n=%d", len(all("untraced"))))
	out.add("cost_ratio.history", p50("untraced")/p50("nohistory"), "ratio", "daemon with -history ÷ without, at mid")

	traced := all("traced")
	var events int
	var flows [3]float64
	for _, ph := range phases["traced"] {
		events += ph.events
		for i := range flows {
			flows[i] += ph.flows[i]
		}
	}
	for _, kind := range []struct{ name, kinds string }{
		{"submit", "submit"}, {"repeat", "repeat"}, {"read", "read."},
	} {
		var xs []float64
		for _, smp := range traced {
			if strings.HasPrefix(smp.Kind, kind.kinds) {
				xs = append(xs, ms(smp.Latency))
			}
		}
		t := tailOf(xs)
		out.layer("pvcd."+kind.name+"_ms.p50", median(xs), "ms", "op_p50_ms · pvcd-serve")
		out.layerNote("pvcd."+kind.name+"_ms.tail", t.Value, "ms", fmt.Sprintf("p%g of n=%d", t.P, t.N), "op_tail_ms · pvcd-serve")
	}
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }
	repeats := 0
	for _, smp := range append(traced, all("untraced")...) {
		if smp.Kind == "repeat" {
			repeats++
		}
	}
	out.layerNote("pvcd.cache_hit_ratio", ratio(delta("pvcd_run_cache_hits_total"), float64(repeats)), "ratio", "completed-run cache hits ÷ repeat ops", "op_p50_ms · pvcd-serve")
	rss, err := procStatusMB(s.d.cmd.Process.Pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	runs := delta("pvcd_runs_completed_total")
	out.layer("pvcd.rss_mb_per_1k_runs", ratio(rss-s.rssWarm, runs)*1000, "MB", "peak_rss_mb · pvcd-serve")

	self := selfTimes(runSpans)
	nRuns := float64(self["run"].Count)
	perRun := func(name string) float64 { return ratio(ms(self[name].Total), nRuns) }
	out.layer("reqtrace.queue_wait_ms", perRun("queue-wait"), "ms", "op_tail_ms · pvcd-serve")
	out.layer("reqtrace.run_self_ms", ratio(ms(self["run"].Self), nRuns), "ms", "op_tail_ms · pvcd-serve")
	out.layer("reqtrace.export_ms", perRun("export"), "ms", "op_tail_ms · pvcd-serve")
	hist := selfTimes(tr.spans())["http.history"]
	out.layer("history.read_ms", ratio(ms(hist.Total), float64(hist.Count)), "ms", "op_tail_ms · pvcd-serve")
	bytesPerRun, err := journalBytesPerRun(filepath.Join(s.d.dir, "history.jsonl"))
	if err != nil {
		return nil, err
	}
	out.layer("history.bytes_per_run", bytesPerRun, "B", "peak_rss_mb · pvcd-serve")

	build, simulate := perRun("build"), perRun("simulate")
	out.layer("sweep.expand_ms", expandMS, "ms", "setup_s · engine-sweep")
	out.layerNote("runner.cells_computed", ratio(delta("pvcsim_memo_misses_total"), float64(runs)), "count", "per run", "op_tail_ms · pvcd-serve")
	out.add("runner.memo_hits", ratio(delta("pvcsim_memo_hits_total"), float64(runs)), "count", "per run; none by construction, one cell per run")
	out.layerNote("gpusim.build_ms", build, "ms", "per run, from reqtrace", "op_tail_ms · pvcd-serve")
	out.layer("gpusim.build_share", ratio(build, build+simulate), "ratio", "op_tail_ms · pvcd-serve")
	out.layerNote("workload.simulate_ms", simulate, "ms", "per run, from reqtrace", "op_tail_ms · pvcd-serve")
	out.add("sim.events", float64(events), "count", "exact for a seed: the traced submits' cells")
	out.layer("sim.events_per_simulate_s", ratio(float64(events)/float64(max(submitsOf(phases["traced"]), 1)), simulate/1e3), "1/s", "sim_events_per_s · pvcd-serve")
	out.add("fabric.flows", flows[0], "count", "exact for a seed; must not move")
	out.add("fabric.bytes", flows[1], "B", "exact for a seed; must not move")
	out.add("fabric.hops", flows[2], "count", "exact for a seed; must not move")
	_, cov := refCounts(refs)
	out.add("wallprof.engine_coverage", cov.share(), "ratio", "over the submit cells, from the reference pass")
	out.layerNote("obs.report_ms", ms(meanReport(refs)), "ms", "per cell, from the reference pass", "op_p50_ms · pvcd-serve")
	var late []float64
	for _, smp := range traced {
		late = append(late, ms(smp.Late))
	}
	lt := tailOf(late)
	out.add("bench.gen_late_ms.tail", lt.Value, "ms", fmt.Sprintf("p%g of n=%d; open-loop lateness", lt.P, lt.N))
	out.add("bench.trace_overhead", p50("traced")/p50("untraced"), "ratio", "traced ÷ untraced op_p50_ms")
	return out, tr.writeTraceFile(e.workload)
}

func submitsOf(phs []phase) int {
	n := 0
	for _, ph := range phs {
		n += ph.submits
	}
	return n
}

// journalBytesPerRun is the journal's size over its record count.
func journalBytesPerRun(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return ratio(float64(len(data)), float64(bytes.Count(data, []byte("\n")))), nil
}

// reqtraceSpans fetches the daemon's request traces and returns the spans
// of the run traces ("run rNNNN") of the given runs, each nested under its
// tightest enclosing span so self times can be taken. The daemon keeps
// only its latest traces, so call it right after the runs finish.
func (d *daemon) reqtraceSpans(runIDs map[string]bool) ([]span, error) {
	code, body, err := d.do("GET", "/v1/reqtrace", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/v1/reqtrace: status %d", code)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		return nil, fmt.Errorf("/v1/reqtrace: %w", err)
	}
	runTID := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			name, _ := ev.Args["name"].(string)
			id, isRun := strings.CutPrefix(name[strings.Index(name, " ")+1:], "run ")
			runTID[ev.TID] = isRun && runIDs[id]
		}
	}
	byTID := map[int][]span{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || ev.Dur == nil || !runTID[ev.TID] {
			continue
		}
		st := time.Duration(ev.TS * 1e3)
		byTID[ev.TID] = append(byTID[ev.TID], span{Name: ev.Name, Start: st, End: st + time.Duration(*ev.Dur*1e3)})
	}
	var out []span
	for _, tid := range sortedKeys(byTID) {
		out = append(out, nest(byTID[tid], len(out))...)
	}
	return out, nil
}
