package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// countingWorkload counts how many times its closure actually runs.
func countingWorkload(name string, runs *atomic.Int64) *workload.Spec {
	return workload.New(name, "counting test workload", "",
		topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			runs.Add(1)
			return workload.Result{Values: []workload.Value{
				{Metric: "stacks", Value: float64(tg.Node.TotalStacks())},
			}}, nil
		})
}

func TestRunOneMemoizes(t *testing.T) {
	var runs atomic.Int64
	w := countingWorkload("count", &runs)
	r := New(1)
	ctx := context.Background()
	first, err := r.RunOne(ctx, topology.Aurora, w)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.RunOne(ctx, topology.Aurora, w)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("workload ran %d times, want 1 (memoized)", runs.Load())
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("memoized result differs from computed result")
	}
	// A different system is a different cell.
	if _, err := r.RunOne(ctx, topology.Dawn, w); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("workload ran %d times after second system, want 2", runs.Load())
	}
}

func TestRunCachedFlag(t *testing.T) {
	var runs atomic.Int64
	w := countingWorkload("cached", &runs)
	r := New(1)
	cells := []Cell{
		{System: topology.Aurora, Workload: w},
		{System: topology.Aurora, Workload: w},
	}
	results := r.Run(context.Background(), cells)
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("errors: %v %v", results[0].Err, results[1].Err)
	}
	cached := 0
	for _, res := range results {
		if res.Cached {
			cached++
		}
	}
	if runs.Load() != 1 || cached != 1 {
		t.Fatalf("runs=%d cached=%d, want 1 and 1", runs.Load(), cached)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	reg := sweep.DefaultRegistry()
	serial := New(1).RunAll(context.Background(), reg)
	parallel := New(runtime.NumCPU()).RunAll(context.Background(), reg)
	if len(serial) != len(parallel) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("serial cell %s/%s: %v", serial[i].Name, serial[i].System, serial[i].Err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("parallel cell %s/%s: %v", parallel[i].Name, parallel[i].System, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("cell %s/%s differs between serial and parallel run",
				serial[i].Name, serial[i].System)
		}
	}
}

func TestUnsupportedSystem(t *testing.T) {
	reg := sweep.DefaultRegistry()
	w, ok := reg.Get("dgemm") // PVC-only
	if !ok {
		t.Fatal("dgemm not registered")
	}
	_, err := New(1).RunOne(context.Background(), topology.JLSEH100, w)
	if err == nil || !strings.Contains(err.Error(), "does not run on JLSE-H100") {
		t.Fatalf("err = %v, want unsupported-system error", err)
	}
}

func TestContextCancellation(t *testing.T) {
	var runs atomic.Int64
	w := countingWorkload("cancelled", &runs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New(2)
	for _, res := range r.Run(ctx, Cells(sweep.DefaultRegistry())) {
		if res.Err == nil {
			t.Fatalf("cell %s/%s succeeded under a cancelled context", res.Name, res.System)
		}
	}
	if _, err := r.RunOne(ctx, topology.Aurora, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The failed computation must not poison the cache: a fresh context
	// recomputes.
	if _, err := r.RunOne(context.Background(), topology.Aurora, w); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("workload ran %d times after recovery, want 1", runs.Load())
	}
}

func TestRunError(t *testing.T) {
	boom := errors.New("boom")
	w := workload.New("failing", "", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			return workload.Result{}, boom
		})
	_, err := New(1).RunOne(context.Background(), topology.Dawn, w)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "failing on Dawn") {
		t.Fatalf("error %q does not name the cell", err)
	}
}

func TestCellsOrder(t *testing.T) {
	reg := sweep.DefaultRegistry()
	cells := Cells(reg)
	var want int
	for _, w := range reg.Workloads() {
		want += len(w.Systems())
	}
	if len(cells) != want {
		t.Fatalf("Cells returned %d cells, want %d", len(cells), want)
	}
	// First workload's cells come first, in its system order.
	first := reg.Workloads()[0]
	for i, sys := range first.Systems() {
		if cells[i].Workload.Name() != first.Name() || cells[i].System != sys {
			t.Fatalf("cell %d = %s/%s, want %s/%s", i,
				cells[i].Workload.Name(), cells[i].System, first.Name(), sys)
		}
	}
}

func TestJobsDefault(t *testing.T) {
	if got := New(0).Jobs(); got != runtime.NumCPU() {
		t.Errorf("New(0).Jobs() = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := New(3).Jobs(); got != 3 {
		t.Errorf("New(3).Jobs() = %d, want 3", got)
	}
}

func TestListAndRunNamed(t *testing.T) {
	reg := sweep.DefaultRegistry()
	var buf bytes.Buffer
	n, err := List(&buf, reg, "")
	if err != nil {
		t.Fatal(err)
	}
	if n != reg.Len() {
		t.Errorf("unfiltered List rendered %d rows, want %d", n, reg.Len())
	}
	for _, name := range []string{"triad", "p2p", "minibude", "energy"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list output missing %q", name)
		}
	}

	// Prefix filter: every clover-strong cell and nothing else.
	buf.Reset()
	n, err = List(&buf, reg, "clover-strong/")
	if err != nil {
		t.Fatal(err)
	}
	if n != 18 {
		t.Errorf("prefix filter rendered %d rows, want 18", n)
	}
	if strings.Contains(buf.String(), "triad") {
		t.Error("prefix filter leaked unrelated workloads")
	}

	// Glob filter: metacharacters switch to path.Match semantics.
	buf.Reset()
	if n, err = List(&buf, reg, "allreduce/*algo=ring"); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("glob filter rendered %d rows, want 6", n)
	}

	// No match: zero rows, no output, no error — the CLI turns this
	// into exit code 3.
	buf.Reset()
	if n, err = List(&buf, reg, "zzz-nope"); err != nil || n != 0 || buf.Len() != 0 {
		t.Errorf("no-match List = (%d, %v), buffered %d bytes; want (0, nil) and no output", n, err, buf.Len())
	}

	if _, err := List(&buf, reg, "[bad"); err == nil {
		t.Error("malformed glob pattern accepted")
	}

	buf.Reset()
	if err := RunNamed(context.Background(), &buf, New(1), reg, "triad", nil, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Aurora", "Dawn", "One Stack", "TB/s"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("triad output missing %q:\n%s", want, buf.String())
		}
	}

	if err := RunNamed(context.Background(), &buf, New(1), reg, "nope", nil, false); err == nil {
		t.Fatal("unknown workload accepted")
	} else if !strings.Contains(err.Error(), "-list") {
		t.Errorf("unknown-workload error %q does not point at -list", err)
	}
}

func ExampleRunner_RunOne() {
	reg := sweep.DefaultRegistry()
	w, _ := reg.Get("triad")
	res, _ := New(1).RunOne(context.Background(), topology.Aurora, w)
	v, _ := res.Lookup("Memory Bandwidth (triad)", "One Stack")
	fmt.Printf("%s %.2f %s\n", res.Workload, v.Value, v.Unit)
	// Output: triad 1.00 TB/s
}
