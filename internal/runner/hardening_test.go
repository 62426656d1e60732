package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pvcsim/internal/gpusim"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/workload"
)

// TestPanicRecovered is the regression test for the panic bugfix: a
// panicking Workload.Run must not kill the process, must not leave
// concurrent waiters deadlocked on the memo entry, and must surface as
// a *PanicError carrying the panic value and a stack.
func TestPanicRecovered(t *testing.T) {
	var runs atomic.Int64
	w := workload.New("panicky", "", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			runs.Add(1)
			panic("kaboom")
		})
	r := New(2)
	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := r.RunOne(context.Background(), topology.Aurora, w)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("panicking workload returned nil error")
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *PanicError", err, err)
			}
			if pe.Value != "kaboom" {
				t.Fatalf("panic value = %v, want kaboom", pe.Value)
			}
			if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
				t.Fatalf("panic error carries no stack: %q", pe.Stack)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter deadlocked on the panicked entry")
		}
	}
	// A panic is a deterministic failure: it memoizes like any error.
	if runs.Load() != 1 {
		t.Fatalf("panicking workload ran %d times, want 1", runs.Load())
	}
}

// TestProcessPanicRecovered extends the panic bugfix into the event
// engine: a panic inside a simulation process, which runs on its own
// goroutine, must still reach the runner's recovery as a *PanicError
// instead of killing the process that hosts the runner.
func TestProcessPanicRecovered(t *testing.T) {
	w := workload.New("proc-panic", "", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			e := sim.NewEngine()
			e.Go("rank0", func(p *sim.Proc) {
				p.Hold(1e-6)
				panic("kaboom in a process")
			})
			return workload.Result{}, e.Run()
		})
	_, err := New(1).RunOne(context.Background(), topology.Aurora, w)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "kaboom in a process") || !strings.Contains(pe.Error(), "rank0") {
		t.Fatalf("panic error does not name the process and its panic value:\n%v", pe)
	}
}

// TestCancelDuringComputeWaitersRetry is the regression test for the
// cancelled-first-caller bugfix: waiters blocked on a computation whose
// owner was cancelled must re-enter the cache and compute the value
// themselves instead of adopting the cancelled error as cached.
func TestCancelDuringComputeWaitersRetry(t *testing.T) {
	var runs atomic.Int64
	started := make(chan struct{})
	w := workload.New("cancel-retry", "", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			if runs.Add(1) == 1 {
				close(started)
				<-ctx.Done()
				return workload.Result{}, ctx.Err()
			}
			return workload.Result{Values: []workload.Value{{Metric: "ok", Value: 1}}}, nil
		})
	r := New(4)
	ctx1, cancel := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, err := r.RunOne(ctx1, topology.Aurora, w)
		firstErr <- err
	}()
	<-started

	// Healthy waiters pile onto the in-flight entry.
	const waiters = 4
	waiterErrs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := r.RunOne(context.Background(), topology.Aurora, w)
			waiterErrs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the waiters block on e.done
	cancel()

	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("first caller err = %v, want context.Canceled", err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-waiterErrs:
			if err != nil {
				t.Fatalf("waiter adopted the cancelled computation: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter never unblocked after the owner was cancelled")
		}
	}
	// Exactly two executions: the cancelled one and one retry that the
	// remaining waiters then share.
	if runs.Load() != 2 {
		t.Fatalf("workload ran %d times, want 2 (cancelled + one retry)", runs.Load())
	}
}

// TestRunProducerCancel covers the producer bugfix: cancelling the
// context while the single worker is busy must not wedge Run — the
// never-dispatched cells are backfilled with the cancellation error and
// their workloads never execute.
func TestRunProducerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var firstRuns, laterRuns atomic.Int64
	first := workload.New("first", "", "", topology.AllSystems(),
		func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
			firstRuns.Add(1)
			cancel()
			// Keep the lone worker busy so the producer sits in its send.
			time.Sleep(20 * time.Millisecond)
			return workload.Result{}, nil
		})
	var cells []Cell
	cells = append(cells, Cell{System: topology.Aurora, Workload: first})
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{System: topology.AllSystems()[i%4], Workload: workload.New(
			"later", "", "", topology.AllSystems(),
			func(ctx context.Context, tg *gpusim.Target) (workload.Result, error) {
				laterRuns.Add(1)
				return workload.Result{}, nil
			})})
	}
	results := New(1).Run(ctx, cells)
	if results[0].Err != nil {
		t.Fatalf("first cell err = %v, want nil (it completed)", results[0].Err)
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("cell %d err = %v, want context.Canceled", i, results[i].Err)
		}
		if results[i].Name != "later" || results[i].System != cells[i].System {
			t.Fatalf("backfilled cell %d misidentified: %s/%s", i, results[i].Name, results[i].System)
		}
	}
	if firstRuns.Load() != 1 || laterRuns.Load() != 0 {
		t.Fatalf("runs = %d/%d, want 1 first and 0 later", firstRuns.Load(), laterRuns.Load())
	}
}
