package gpusim

import (
	"bytes"
	"encoding/json"
	"testing"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// deviceSpans returns the spans tied to a subdevice, dropping the
// fabric flows the network records alongside them.
func deviceSpans(tr *obs.Trace) []obs.Span {
	var out []obs.Span
	for _, s := range tr.Spans() {
		if s.GPU >= 0 {
			out = append(out, s)
		}
	}
	return out
}

func TestRecorderCapturesTimeline(t *testing.T) {
	m := MustNew(topology.NewAurora())
	tr := obs.NewTrace()
	m.Observe(tr)
	if m.sink != tr {
		t.Fatal("recorder not attached")
	}
	st, _ := m.Stack(topology.StackID{})
	prof := perfmodel.Profile{Name: "triad", MemBytes: units.Bytes(2.4e9), Kind: perfmodel.KindStream}
	m.Go("work", func(p *sim.Proc) {
		st.MemcpyH2D(p, 500*units.MB)
		st.LaunchKernel(p, prof)
		st.MemcpyD2H(p, 500*units.MB)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	evs := deviceSpans(tr)
	if len(evs) != 3 {
		t.Fatalf("device spans = %d, want 3", len(evs))
	}
	kinds := []string{"h2d", "kernel", "d2h"}
	for i, e := range evs {
		if e.Cat != kinds[i] {
			t.Errorf("span %d cat = %s, want %s", i, e.Cat, kinds[i])
		}
		if e.End <= e.Start {
			t.Errorf("span %d has non-positive duration", i)
		}
		if e.GPU != 0 || e.Stack != 0 {
			t.Errorf("span %d on gpu %d stack %d, want 0.0", i, e.GPU, e.Stack)
		}
	}
	// Sequential ops do not overlap.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].End {
			t.Errorf("span %d overlaps previous", i)
		}
	}
}

func TestRecorderDisabledByDefault(t *testing.T) {
	m := MustNew(topology.NewAurora())
	st, _ := m.Stack(topology.StackID{})
	m.Go("work", func(p *sim.Proc) { st.MemcpyH2D(p, 1*units.MB) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.sink != nil {
		t.Error("recorder should default to nil")
	}
}

func TestChromeTraceExport(t *testing.T) {
	m := MustNew(topology.NewDawn())
	col := obs.NewCollector()
	k := obs.Key{Workload: "fma", System: "dawn"}
	m.Observe(col.Cell(k))
	for _, st := range m.Stacks()[:4] {
		s := st
		m.Go("k", func(p *sim.Proc) {
			s.LaunchKernel(p, perfmodel.Profile{Name: "fma", Flops: 1e12, Kind: perfmodel.KindPeakFlops})
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	col.Finish(k, 0, nil)
	var b bytes.Buffer
	if err := col.Report().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []chrometrace.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// One process_name, one thread_name per stack, one kernel per stack.
	var meta, kernels int
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			kernels++
			if e.Name != "fma" || e.Cat != "kernel" || e.Dur == nil || *e.Dur <= 0 {
				t.Errorf("trace format: %+v", e)
			}
		}
	}
	if meta != 5 || kernels != 4 {
		t.Fatalf("metadata events = %d, kernels = %d; want 5 and 4", meta, kernels)
	}
}
