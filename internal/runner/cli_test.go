package runner

import (
	"bytes"
	"context"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// TestObsFlagsStatsLine: when observability output is requested, Finish
// appends the runner lifecycle tallies (computed / cache hits / panics)
// after the per-cell summary.
func TestObsFlagsStatsLine(t *testing.T) {
	w := workload.New("cli-hooked", "obs flags test workload", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			return workload.Result{Values: []workload.Value{{Metric: "x", Value: 1}}}, nil
		})

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var obsf ObsFlags
	obsf.Register(fs)
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	if err := fs.Parse([]string{"-metrics", metricsPath}); err != nil {
		t.Fatal(err)
	}

	r := New(2)
	obsf.Attach(r)
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

	var summary bytes.Buffer
	if err := obsf.Finish(&summary); err != nil {
		t.Fatal(err)
	}
	want := "runner: 1 computed, 2 cache hit(s), 0 panic(s) recovered"
	if !strings.Contains(summary.String(), want) {
		t.Errorf("summary missing stats line %q:\n%s", want, summary.String())
	}
}

// TestObsFlagsDisabledNoStats: with no observability flags set, Attach
// wires nothing and Finish prints nothing — the hot path stays bare.
func TestObsFlagsDisabledNoStats(t *testing.T) {
	var obsf ObsFlags
	r := New(1)
	obsf.Attach(r)
	if len(r.hooks) != 0 {
		t.Fatalf("Attach with no flags registered %d hooks, want 0", len(r.hooks))
	}
	var summary bytes.Buffer
	if err := obsf.Finish(&summary); err != nil {
		t.Fatal(err)
	}
	if summary.Len() != 0 {
		t.Errorf("Finish with nothing attached wrote %q", summary.String())
	}
}
