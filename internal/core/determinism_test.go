package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
)

// readArtifacts loads every artifact file of a directory keyed by name.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// firstDiff returns the offset of the first differing byte, with a
// short hex/ASCII excerpt of both sides, so a maprange-class slip shows
// *where* the artifacts diverged, not just that they did.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 12
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first difference at byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d bytes", len(a), len(b))
}

// TestArtifactsDeterministicAcrossJobs is the dynamic complement to
// pvclint's maprange analyzer: the complete rendered artifact (every
// table, CSV, figure, and the fidelity report) is generated several
// times in this one process under different -jobs values — including
// explicit 2 and 4, so worker interleaving is exercised even on a
// single-CPU host where NumCPU would degenerate to a serial rerun — and
// every file must be byte-for-byte identical to the serial reference.
func TestArtifactsDeterministicAcrossJobs(t *testing.T) {
	render := func(study *Study) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		if err := study.WriteAllArtifacts(dir); err != nil {
			t.Fatal(err)
		}
		return readArtifacts(t, dir)
	}
	reference := render(NewStudy())
	var names []string
	for name := range reference {
		names = append(names, name)
	}
	sort.Strings(names)

	jobsValues := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		jobsValues = append(jobsValues, n)
	}
	for _, jobs := range jobsValues {
		parallel := render(NewParallelStudy(jobs))
		if len(reference) != len(parallel) {
			t.Fatalf("-jobs=%d: artifact counts differ: %d vs %d", jobs, len(reference), len(parallel))
		}
		for _, name := range names {
			pb, ok := parallel[name]
			if !ok {
				t.Errorf("-jobs=%d run is missing %s", jobs, name)
				continue
			}
			if !bytes.Equal(reference[name], pb) {
				t.Errorf("%s differs between -jobs=1 and -jobs=%d: %s",
					name, jobs, firstDiff(reference[name], pb))
			}
		}
	}
}

// TestRegistryDeterministicAcrossRuns runs the full registry twice —
// serial and parallel — and checks every cell's Result is identical,
// covering workloads (sweeps, energy) that no table consumes.
func TestRegistryDeterministicAcrossRuns(t *testing.T) {
	reg := sweep.DefaultRegistry()
	ctx := context.Background()
	serial := runner.New(1).Run(ctx, runner.Cells(reg.Workloads()))
	parallel := runner.New(runtime.NumCPU()).Run(ctx, runner.Cells(reg.Workloads()))
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("serial %s/%s: %v", serial[i].Name, serial[i].System, serial[i].Err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("parallel %s/%s: %v", parallel[i].Name, parallel[i].System, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("%s on %s differs between serial and parallel runs",
				serial[i].Name, serial[i].System)
		}
	}
}

// TestTraceDeterministicAcrossJobs is the observability determinism
// test: the -trace, -metrics, and -profile exports (plus the rendered
// flamegraph), which carry only simulated quantities, must be
// byte-identical across -jobs=1, 2, and 4 runs of the full registry in
// this one process.
func TestTraceDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) map[string]string {
		col := obs.NewCollector()
		r := runner.New(jobs)
		r.Observe(col)
		for _, res := range r.Run(context.Background(), runner.Cells(sweep.DefaultRegistry().Workloads())) {
			if res.Err != nil {
				t.Fatalf("jobs=%d %s/%s: %v", jobs, res.Name, res.System, res.Err)
			}
		}
		rep := col.Report()
		profile := prof.Build(rep)
		out := map[string]string{}
		for name, write := range map[string]func(io.Writer) error{
			"trace":   rep.WriteChromeTrace,
			"metrics": rep.WriteMetrics,
			"profile": profile.WriteJSON,
			"flame":   profile.WriteFlame,
		} {
			var b bytes.Buffer
			if err := write(&b); err != nil {
				t.Fatalf("jobs=%d rendering %s: %v", jobs, name, err)
			}
			out[name] = b.String()
		}
		return out
	}
	reference := render(1)
	names := make([]string, 0, len(reference))
	for name := range reference {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, jobs := range []int{2, 4} {
		got := render(jobs)
		for _, name := range names {
			if reference[name] != got[name] {
				t.Errorf("-%s output differs between -jobs=1 and -jobs=%d: %s",
					name, jobs, firstDiff([]byte(reference[name]), []byte(got[name])))
			}
		}
	}
}

// TestProfileResidencyOverRegistry is the profiler's acceptance check:
// over the full workload registry, every profiled cell's bound tags are
// well-formed and its residency fractions sum to exactly 1 (within
// float tolerance) — the attribution partitions the cell's simulated
// time, it never double-bills or drops any.
func TestProfileResidencyOverRegistry(t *testing.T) {
	col := obs.NewCollector()
	r := runner.New(runtime.NumCPU())
	r.Observe(col)
	for _, res := range r.Run(context.Background(), runner.Cells(sweep.DefaultRegistry().Workloads())) {
		if res.Err != nil {
			t.Fatalf("%s/%s: %v", res.Name, res.System, res.Err)
		}
	}
	profile := prof.Build(col.Report())
	if len(profile.Cells) == 0 {
		t.Fatal("no cell in the registry produced an attributed profile")
	}
	// Every tag must be one prof constructs: a fixed constant, a
	// precision's compute tag or a modeled cache level's tag.
	known := map[string]bool{}
	for _, tag := range []string{
		prof.BoundHBM, prof.BoundPCIe, prof.BoundFabricLocal, prof.BoundFabricRemote,
		prof.BoundFabricXPlane, prof.BoundFabricNode, prof.BoundPower, prof.BoundLaunch,
	} {
		known[tag] = true
	}
	for _, p := range []hw.Precision{hw.FP64, hw.FP32, hw.FP16, hw.BF16, hw.TF32, hw.I8} {
		known[prof.BoundCompute(p)] = true
	}
	for _, sys := range topology.AllSystems() {
		for _, lv := range topology.NewNode(sys).GPU.Sub.Caches {
			known[prof.BoundCache(lv.Name)] = true
		}
	}
	for _, c := range profile.Cells {
		sum := 0.0
		for _, sh := range c.Residency {
			if !known[sh.Bound] {
				t.Errorf("%s: unknown bound tag %q", c.Name(), sh.Bound)
			}
			if sh.Seconds < 0 || sh.Fraction < 0 {
				t.Errorf("%s: negative share %+v", c.Name(), sh)
			}
			sum += sh.Fraction
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: residency fractions sum to %.12f, want 1", c.Name(), sum)
		}
		if c.AttributedS <= 0 {
			t.Errorf("%s: attributed_s = %v, want > 0", c.Name(), c.AttributedS)
		}
	}
}
