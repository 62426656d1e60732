package telemetry

import (
	"bytes"
	"context"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/runner"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// TestRunnerHooksFeedMetrics drives a real runner with the telemetry
// hooks attached and checks the counters, gauges, and histogram land
// where the daemon expects them — including that the whole page still
// parses.
func TestRunnerHooksFeedMetrics(t *testing.T) {
	tele := New()
	w := workload.New("tw", "telemetry test workload", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			return workload.Result{Values: []workload.Value{{Metric: "x", Value: 1}}}, nil
		})
	boom := workload.New("tw-boom", "panicking workload", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			panic("telemetry test panic")
		})
	r := runner.New(2)
	r.AddHooks(tele.Hooks())
	cells := []runner.Cell{
		{System: topology.Aurora, Workload: w},
		{System: topology.Aurora, Workload: w}, // memo hit
		{System: topology.Dawn, Workload: w},
		{System: topology.Aurora, Workload: boom},
	}
	r.Run(context.Background(), cells)

	if got := tele.MemoHits.Value(); got != 1 {
		t.Errorf("memo hits = %g, want 1", got)
	}
	if got := tele.MemoMisses.Value(); got != 3 {
		t.Errorf("memo misses = %g, want 3", got)
	}
	if got := tele.PanicRecovered.Value(); got != 1 {
		t.Errorf("panic recoveries = %g, want 1", got)
	}
	if got := tele.QueueDepth.Value(); got != 0 {
		t.Errorf("queue depth after drain = %g, want 0", got)
	}
	if got := tele.CellsInflight.Value(); got != 0 {
		t.Errorf("inflight after drain = %g, want 0", got)
	}
	if got := tele.CellWall.With("tw").s.count; got != 2 {
		t.Errorf("tw wall observations = %d, want 2 (two computes)", got)
	}

	var buf bytes.Buffer
	if err := tele.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseMetrics(&buf)
	if err != nil {
		t.Fatalf("telemetry page does not parse: %v\n%s", err, buf.String())
	}
	if v, ok := fams.Value("pvcsim_cells_completed_total", map[string]string{"status": "ok"}); !ok || v != 3 {
		t.Errorf("cells_completed{ok} = %v (present=%v), want 3", v, ok)
	}
	if v, ok := fams.Value("pvcsim_cells_completed_total", map[string]string{"status": "error"}); !ok || v != 1 {
		t.Errorf("cells_completed{error} = %v (present=%v), want 1", v, ok)
	}
	if v, ok := fams.Value("pvcsim_panic_recoveries_total", nil); !ok || v != 1 {
		t.Errorf("panic_recoveries_total = %v (present=%v), want 1", v, ok)
	}
}

// TestOrphanGauge folds orphan counts into the gauge.
func TestOrphanGauge(t *testing.T) {
	tele := New()
	tele.AddOrphanFinishes(0)
	if got := tele.OrphanFinishes.Value(); got != 0 {
		t.Errorf("orphans after 0-fold = %g, want 0", got)
	}
	tele.AddOrphanFinishes(2)
	tele.AddOrphanFinishes(1)
	if got := tele.OrphanFinishes.Value(); got != 3 {
		t.Errorf("orphans = %g, want 3", got)
	}
}
