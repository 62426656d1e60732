package sweep_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"pvcsim/internal/core"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/wallprof"
)

// exports bundles the three observability artifacts one run produces.
type exports struct {
	metrics []byte
	trace   []byte
	profile []byte
}

// runFamily executes one sweep-family workload through the same path
// pvcbench uses — parallel study, observed runner, RunNamed — and
// returns the exports plus, with profile set, the wall-clock
// self-profile that rode along (timeline included, as -wall-trace would
// attach it).
func runFamily(t *testing.T, name string, profile bool) (exports, *wallprof.Collector) {
	t.Helper()
	study := core.NewParallelStudy(1)
	col := obs.NewCollector()
	study.Runner().Observe(col)
	var wall *wallprof.Collector
	if profile {
		wall = wallprof.New()
		wall.EnableTimeline()
		study.Runner().ProfileWall(wall)
	}
	if err := runner.RunNamed(context.Background(), io.Discard, study.Runner(), study.Registry(),
		name, nil, false); err != nil {
		t.Fatalf("%s [wallprof=%v]: %v", name, profile, err)
	}
	rep := col.Report()
	var m, tr, pr bytes.Buffer
	if err := rep.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := prof.Build(rep).WriteJSON(&pr); err != nil {
		t.Fatal(err)
	}
	if wall != nil {
		// Render both wall exports so the full report path runs.
		if err := wall.Report().WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := wall.WriteChromeTrace(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	return exports{metrics: m.Bytes(), trace: tr.Bytes(), profile: pr.Bytes()}, wall
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestWallprofSideChannel is the purity claim of the self-profiling
// layer: runs with a wallprof collector attached must render metrics,
// trace, and profile exports byte-identical to runs with no profiler at
// all. The wall-clock layer may observe the simulation but never perturb
// it. Both families genuinely drive the event engine — clover-scaling on
// its one machine, p2p on the machines its benchmark suite builds per
// run — so each profile must also have measured engine busy time: a
// collector that silently stopped attaching would pass the byte
// comparison vacuously.
func TestWallprofSideChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweep cells with and without profiling")
	}
	for _, tc := range []struct {
		family string
		engine bool
	}{{"clover-scaling", true}, {"p2p", true}} {
		want, _ := runFamily(t, tc.family, false)
		got, wall := runFamily(t, tc.family, true)
		if !bytes.Equal(got.metrics, want.metrics) {
			t.Errorf("%s: metrics with wallprof diverge from unprofiled at byte %d",
				tc.family, firstDiff(got.metrics, want.metrics))
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("%s: chrome trace with wallprof diverges from unprofiled at byte %d",
				tc.family, firstDiff(got.trace, want.trace))
		}
		if !bytes.Equal(got.profile, want.profile) {
			t.Errorf("%s: profile with wallprof diverges from unprofiled at byte %d",
				tc.family, firstDiff(got.profile, want.profile))
		}
		busyMS := 0.0
		for _, c := range wall.Report().Cells {
			busyMS += c.EngineRunMS
		}
		if tc.engine && busyMS <= 0 {
			t.Errorf("%s: wallprof rode along but measured no engine busy time", tc.family)
		}
	}
}
