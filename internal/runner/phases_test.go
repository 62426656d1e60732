package runner

import (
	"context"
	"math"
	"testing"
	"time"

	"pvcsim/internal/obs"
	"pvcsim/internal/sweep"
	"pvcsim/internal/wallprof"
)

// tickMarks is a Hooks implementation that notes the tick clock's count
// when each cell starts and finishes, so a serial run can recover every
// cell's compute interval without reading the clock itself.
type tickMarks struct {
	ticks         *int64
	start, finish map[string]int64
}

func (m *tickMarks) CellQueued(system, workload string) {}
func (m *tickMarks) CellStart(system, workload string)  { m.start[workload+"@"+system] = *m.ticks }
func (m *tickMarks) CellFinish(system, workload string, wall time.Duration, cached bool, err error) {
	m.finish[workload+"@"+system] = *m.ticks
}
func (m *tickMarks) CellPanic(system, workload string, err error) {}

// TestWallPhasesFollowWhatCellsBuild runs the registry's table, FOM,
// microbenchmark, energy and cluster cells with obs and wallprof
// attached. Every cell that recorded spans must have had its engine
// profiled; the analytic cells must build and run nothing; and the build
// and simulate phases must tile each cell's compute interval.
func TestWallPhasesFollowWhatCellsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry cell")
	}
	const tick = int64(time.Millisecond)
	var ticks int64
	wall := wallprof.NewWithClock(func() int64 { ticks++; return ticks * tick })
	col := obs.NewCollector()
	marks := &tickMarks{ticks: &ticks, start: map[string]int64{}, finish: map[string]int64{}}
	r := New(1)
	r.Observe(col)
	r.ProfileWall(wall)
	r.AddHooks(marks)
	cells := Cells(sweep.DefaultRegistry().Workloads())
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			t.Fatalf("%s on %s: %v", res.Name, res.System, res.Err)
		}
	}

	walls := map[string]wallprof.CellReport{}
	for _, c := range wall.Report().Cells {
		walls[c.Workload+"@"+c.System] = c
	}
	if len(walls) != len(cells) {
		t.Fatalf("wallprof profiled %d cells, want %d", len(walls), len(cells))
	}
	spans := 0
	for _, c := range col.Report().Cells {
		if c.Events == 0 {
			continue
		}
		spans++
		if w := walls[c.Workload+"@"+c.System]; w.EngineRuns == 0 || w.BuildMS == 0 {
			t.Errorf("%s@%s recorded %d spans but wallprof saw %d engine runs, %g ms build",
				c.Workload, c.System, c.Events, w.EngineRuns, w.BuildMS)
		}
	}
	if spans == 0 {
		t.Fatal("no cell recorded spans")
	}
	analytic := map[string]bool{
		"minibude": true, "cloverleaf": true, "miniqmc": true, "minigamess": true,
		"openmc": true, "hacc": true, "energy": true, "minibude-sweep": true,
	}
	seen := 0
	for name, w := range walls {
		if analytic[w.Workload] {
			seen++
			if w.BuildMS != 0 || w.EngineRuns != 0 {
				t.Errorf("analytic cell %s built %g ms and ran %d engines, want nothing", name, w.BuildMS, w.EngineRuns)
			}
		}
		// The first clock read after CellStart opens the interval and
		// the last before CellFinish closes it.
		interval := float64((marks.finish[name]-marks.start[name]-1)*tick) * 1e-6
		if got := w.BuildMS + w.SimulateMS; math.Abs(got-interval) > 1e-9 {
			t.Errorf("%s: build %g + simulate %g ms = %g, want the compute interval %g ms",
				name, w.BuildMS, w.SimulateMS, got, interval)
		}
	}
	if seen == 0 {
		t.Fatal("no analytic cell in the registry")
	}
}
