package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pvcsim/internal/wallprof"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 20 * ms, End: 50 * ms},  // overlaps the first a
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// 100 minus [10,50] and [90,100]
		"op": {Total: 100 * ms, Self: 50 * ms, Count: 1},
		// 20 + (30 - 10 covered by c)
		"a": {Total: 50 * ms, Self: 40 * ms, Count: 2},
		"b": {Total: 30 * ms, Self: 30 * ms, Count: 1},
		"c": {Total: 10 * ms, Self: 10 * ms, Count: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestOpTracerNestsAndExports(t *testing.T) {
	tr := newOpTracer()
	op := tr.start("op")
	start, end, err := op.timed("layer", func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil || end <= start {
		t.Fatalf("timed span [%d, %d] err %v", start, end, err)
	}
	op.addPhases(start, end, &wallprof.Report{Cells: []wallprof.CellReport{{BuildMS: 0.5, SimulateMS: 60}}})
	op.finish()
	self := selfTimes(tr.spans())
	for name, want := range map[string]int{"op": 1, "layer": 1, "gpusim.build": 1, "workload.simulate": 1} {
		if self[name].Count != want {
			t.Errorf("%s: %d spans, want %d", name, self[name].Count, want)
		}
	}
	// The simulate phase is clipped at the layer's end, so the phases
	// cover the layer and leave it no self time.
	if self["layer"].Self != 0 || self["workload.simulate"].Total != time.Duration(end-start)-500*time.Microsecond {
		t.Errorf("layer %+v simulate %+v: want the phases to fill the layer", self["layer"], self["workload.simulate"])
	}
	var buf bytes.Buffer
	if err := tr.tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		names[ev.Name] = true
	}
	for _, n := range []string{"op", "layer", "gpusim.build", "workload.simulate"} {
		if !names[n] {
			t.Errorf("Chrome trace lacks %s: %v", n, names)
		}
	}
	var untraced *opTracer
	nop := untraced.start("op")
	if _, _, err := nop.timed("x", func() error { return nil }); err != nil || nop != nil {
		t.Errorf("nil tracer recorded %v", nop)
	}
	nop.finish()
}

func TestNestFindsTightestParent(t *testing.T) {
	us := time.Microsecond
	spans := nest([]span{
		{Name: "simulate", Start: 30 * us, End: 80 * us},
		{Name: "run r1", Start: 0, End: 100 * us},
		{Name: "run", Start: 20 * us, End: 90 * us},
		{Name: "build", Start: 20 * us, End: 30 * us},
		{Name: "export", Start: 90 * us, End: 100 * us},
	}, 10)
	parent := map[string]string{}
	name := map[int]string{}
	for _, s := range spans {
		name[s.ID] = s.Name
	}
	for _, s := range spans {
		parent[s.Name] = name[s.Parent]
	}
	want := map[string]string{"run r1": "", "run": "run r1", "build": "run", "simulate": "run", "export": "run r1"}
	for k, v := range want {
		if parent[k] != v {
			t.Errorf("parent of %s = %q, want %q", k, parent[k], v)
		}
	}
	if spans[0].ID != 11 {
		t.Errorf("IDs start at %d, want base+1 = 11", spans[0].ID)
	}
	if got := selfTimes(spans)["run"].Self; got != 10*us {
		t.Errorf("run self = %v, want 70us - 10us build - 50us simulate = 10us", got)
	}
}
