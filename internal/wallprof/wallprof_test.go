package wallprof_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/obs"
	"pvcsim/internal/sim"
	"pvcsim/internal/units"
	"pvcsim/internal/wallprof"
)

// tickClock is a deterministic injected clock: every reading advances
// by one microsecond, so durations depend only on call counts.
func tickClock() wallprof.Clock {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

// runProbed drives an engine with two interleaved processes under a
// probed collector and returns the report.
func runProbed(t *testing.T, c *wallprof.Collector) *wallprof.Report {
	t.Helper()
	cp := c.Cell(obs.Key{Workload: "w", System: "s"})
	e := sim.NewEngine()
	e.SetWallProbe(cp.Probe())
	e.Go("hopper", func(p *sim.Proc) {
		p.Hold(units.Seconds(1e-6))
		p.Hold(units.Seconds(1e-6))
	})
	e.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			p.Hold(units.Seconds(2e-6))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Report()
}

func TestEngineProbeAccounting(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	rep := runProbed(t, c)
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	if cell.Name() != "w @ s" {
		t.Errorf("cell name = %q", cell.Name())
	}
	if cell.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1", cell.EngineRuns)
	}
	if len(cell.Lanes) != 1 {
		t.Fatalf("lanes = %d, want 1", len(cell.Lanes))
	}
	l := cell.Lanes[0]
	// Two process starts plus six holds.
	if l.Events != 8 {
		t.Errorf("events = %d, want 8", l.Events)
	}
	if l.BusyMS <= 0 || l.Utilization != 1 {
		t.Errorf("busy=%v utilization=%v, want busy > 0 and utilization 1", l.BusyMS, l.Utilization)
	}
	if cell.EngineRunMS <= 0 {
		t.Errorf("engine run wall = %v, want > 0 under the tick clock", cell.EngineRunMS)
	}
}

func TestSerialEngineIsOneBurst(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	cp := c.Cell(obs.Key{Workload: "serial", System: "s"})
	e := sim.NewEngine()
	e.SetWallProbe(cp.Probe())
	for i := 0; i < 5; i++ {
		e.Schedule(units.Seconds(float64(i)*1e-6), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	cell := c.Report().Cells[0]
	if cell.Rounds != 0 || cell.BarrierMS != 0 {
		t.Errorf("serial run has rounds=%d barrier_ms=%v, want 0/0", cell.Rounds, cell.BarrierMS)
	}
	if cell.EngineRuns != 1 || len(cell.Lanes) != 1 || cell.Lanes[0].Events != 5 {
		t.Errorf("serial drain: runs=%d lanes=%+v, want one run on one lane, five events", cell.EngineRuns, cell.Lanes)
	}
}

func TestPhaseTimings(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	cp := c.Cell(obs.Key{Workload: "w", System: "s"})
	cp.AddBuild(cp.Now())
	cp.AddSimulate(cp.Now())
	cp.AddCacheHit(cp.Now())
	c.AddExportNS(int64(3 * time.Millisecond))
	cell := c.Report().Cells[0]
	if cell.BuildMS <= 0 || cell.SimulateMS <= 0 || cell.CacheWaitMS <= 0 {
		t.Errorf("phase timings not recorded: %+v", cell)
	}
	if cell.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", cell.CacheHits)
	}
	if got := c.Report().ExportMS; got != 3 {
		t.Errorf("export ms = %v, want 3", got)
	}
}

func TestReportRendering(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	rep := runProbed(t, c)

	var human bytes.Buffer
	if err := rep.WriteReport(&human); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Wall-clock self-profile", "LANE", "BUSY_MS", "UTIL", "engine: 1 run(s)"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("report missing %q:\n%s", want, human.String())
		}
	}

	var flame bytes.Buffer
	if err := rep.WriteFlame(&flame); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flame.String(), ";simulate;lane 0;busy ") {
		t.Errorf("flame missing lane busy stack:\n%s", flame.String())
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back wallprof.Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.WallSchema != wallprof.WallSchemaVersion {
		t.Errorf("schema = %d, want %d", back.WallSchema, wallprof.WallSchemaVersion)
	}
}

func TestChromeTraceTimeline(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	c.EnableTimeline()
	runProbed(t, c)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []chrometrace.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var runs int
	for _, ev := range tf.TraceEvents {
		if ev.TS < 0 {
			t.Errorf("negative timestamp on %q", ev.Name)
		}
		if ev.Name == "run" {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("timeline trace has %d engine runs, want 1", runs)
	}
	if !strings.Contains(buf.String(), "wall: w @ s") {
		t.Error("trace missing the wall process name")
	}
}

// TestProbeIsSideChannel reruns the identical model with and without a
// probe and requires identical simulated end times — the probe can
// observe but never steer.
func TestProbeIsSideChannel(t *testing.T) {
	run := func(probed bool) units.Seconds {
		e := sim.NewEngine()
		if probed {
			c := wallprof.New()
			e.SetWallProbe(c.Cell(obs.Key{Workload: "x", System: "y"}).Probe())
		}
		e.Go("p", func(p *sim.Proc) {
			p.Hold(units.Seconds(5e-6))
			p.Hold(units.Seconds(5e-6))
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if off, on := run(false), run(true); off != on {
		t.Errorf("probe changed simulated time: off=%v on=%v", off, on)
	}
}
