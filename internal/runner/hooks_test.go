package runner

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// recordingHooks appends every lifecycle event as "phase system/workload".
type recordingHooks struct {
	mu     sync.Mutex
	events []string
}

func (h *recordingHooks) add(phase, sys, name string) {
	h.mu.Lock()
	h.events = append(h.events, phase+" "+sys+"/"+name)
	h.mu.Unlock()
}

func (h *recordingHooks) CellQueued(sys, name string) { h.add("queued", sys, name) }
func (h *recordingHooks) CellStart(sys, name string)  { h.add("start", sys, name) }
func (h *recordingHooks) CellFinish(sys, name string, wall time.Duration, cached bool, err error) {
	phase := "finish"
	if cached {
		phase = "finish-cached"
	}
	if err != nil {
		phase += "-err"
	}
	h.add(phase, sys, name)
}
func (h *recordingHooks) CellPanic(sys, name string, err error) {
	h.add("panic", sys, name)
}

func (h *recordingHooks) count(prefix string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, e := range h.events {
		if strings.HasPrefix(e, prefix) {
			n++
		}
	}
	return n
}

// TestHooksLifecycle runs the same cell three times (one compute, two
// memo hits) and checks every event pairs up.
func TestHooksLifecycle(t *testing.T) {
	w := workload.New("hooked", "hook test workload", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			return workload.Result{Values: []workload.Value{{Metric: "x", Value: 1}}}, nil
		})
	rec := &recordingHooks{}
	stats := &Stats{}
	r := New(2)
	r.AddHooks(rec)
	r.AddHooks(stats)
	cells := []Cell{
		{System: topology.Aurora, Workload: w},
		{System: topology.Aurora, Workload: w},
		{System: topology.Aurora, Workload: w},
	}
	for _, res := range r.Run(context.Background(), cells) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if got := rec.count("queued"); got != 3 {
		t.Errorf("queued events = %d, want 3", got)
	}
	if got := rec.count("start"); got != 3 {
		t.Errorf("start events = %d, want 3", got)
	}
	if got := rec.count("finish"); got != 3 {
		t.Errorf("finish events = %d, want 3", got)
	}
	if got := rec.count("finish-cached"); got != 2 {
		t.Errorf("finish-cached events = %d, want 2 (one compute, two memo hits)", got)
	}
	if stats.Queued() != 3 || stats.Started() != 3 || stats.Finished() != 3 {
		t.Errorf("stats queued/started/finished = %d/%d/%d, want 3/3/3",
			stats.Queued(), stats.Started(), stats.Finished())
	}
	if stats.CacheHits() != 2 || stats.Computed() != 1 {
		t.Errorf("stats cacheHits/computed = %d/%d, want 2/1", stats.CacheHits(), stats.Computed())
	}
	if stats.Panics() != 0 {
		t.Errorf("stats panics = %d, want 0", stats.Panics())
	}
}

// TestHooksPanicAndUnsupported checks the failure paths: a panicking
// workload fires CellPanic (plus a finish with the error), and an
// unsupported system still pairs start with finish.
func TestHooksPanicAndUnsupported(t *testing.T) {
	boom := workload.New("boom", "panics", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			panic("kaboom")
		})
	auroraOnly := workload.New("aurora-only", "restricted", "",
		[]topology.System{topology.Aurora},
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			return workload.Result{}, nil
		})
	rec := &recordingHooks{}
	stats := &Stats{}
	r := New(1)
	r.AddHooks(rec)
	r.AddHooks(stats)
	results := r.Run(context.Background(), []Cell{
		{System: topology.Aurora, Workload: boom},
		{System: topology.Dawn, Workload: auroraOnly},
	})
	for _, res := range results {
		if res.Err == nil {
			t.Fatalf("cell %s@%s: want error", res.Name, res.System)
		}
	}
	if got := rec.count("panic"); got != 1 {
		t.Errorf("panic events = %d, want 1", got)
	}
	if stats.Panics() != 1 {
		t.Errorf("stats panics = %d, want 1", stats.Panics())
	}
	if got, want := rec.count("start"), 2; got != want {
		t.Errorf("start events = %d, want %d", got, want)
	}
	if got, want := rec.count("finish"), 2; got != want {
		t.Errorf("finish events = %d, want %d", got, want)
	}
	if got := rec.count("finish-cached"); got != 0 {
		t.Errorf("finish-cached events = %d, want 0", got)
	}
}
