package gpusim

import (
	"strconv"
	"strings"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/obs"
	"pvcsim/internal/perfmodel"
	"pvcsim/internal/sim"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// callLog is an obs.Recorder that keeps every call in arrival order, so
// a test can pin not only the counter totals but the exact sequence in
// which a launch emits them.
type callLog struct {
	calls []string
	spans []obs.Span
}

func (l *callLog) Span(s obs.Span) {
	l.spans = append(l.spans, s)
	l.calls = append(l.calls, "span "+s.Name)
}

func (l *callLog) Add(name string, delta float64) {
	l.calls = append(l.calls, name+" "+strconv.FormatFloat(delta, 'g', -1, 64))
}

// TestLaunchKernelObservableOutput pins everything an observed kernel
// launch emits — the counter sequence with exact values, the span's
// extent and its bound tag — for the three launch shapes the model
// distinguishes. The expectations are literals recorded from the model,
// so any change to how a launch is priced or recorded shows up here.
func TestLaunchKernelObservableOutput(t *testing.T) {
	cases := []struct {
		name  string
		node  *topology.NodeSpec
		kp    perfmodel.Profile
		calls []string
		end   string
		bound string
	}{
		{
			// FP64 FMA chains pin Aurora's governed clock at ~1.2 GHz.
			name: "throttled compute",
			node: topology.NewAurora(),
			kp: perfmodel.Profile{
				Name: "fma", Flops: 17.03e12, MemBytes: units.MB,
				Precision: hw.FP64, Kind: perfmodel.KindPeakFlops,
			},
			calls: []string{
				"power.throttle_events 1",
				"model.flops 1.703e+13",
				"model.mem_bytes 1e+06",
				"power.throttled_s 0.9994898335644932",
				"power.throttle_events 1",
				"span fma",
			},
			end:   "0.9994908335644932",
			bound: "power.throttle",
		},
		{
			// A 64 MB working set fits Aurora's 192 MiB L2.
			name: "cache-resident memory",
			node: topology.NewAurora(),
			kp: perfmodel.Profile{
				Name: "triad", Flops: 1e6, MemBytes: 2 * units.GB,
				Precision: hw.FP32, Kind: perfmodel.KindStream, WorkingSet: 64 * units.MB,
			},
			calls: []string{
				"model.flops 1e+06",
				"model.mem_bytes 2e+09",
				"span triad",
			},
			end:   "0.002011",
			bound: "cache.l2",
		},
		{
			// The launch overhead is all there is; FP64 vector work is
			// still billed to the governed clock's throttle residency.
			name: "zero work",
			node: topology.NewDawn(),
			kp:   perfmodel.Profile{Name: "noop"},
			calls: []string{
				"power.throttle_events 1",
				"model.flops 0",
				"model.mem_bytes 0",
				"power.throttled_s 9.999999999999999e-06",
				"power.throttle_events 1",
				"span noop",
			},
			end:   "1.1e-05",
			bound: "launch",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, tc.node)
			log := &callLog{}
			m.Observe(log)
			st, _ := m.Stack(topology.StackID{GPU: 1, Stack: 1})
			m.Go("launch", func(p *sim.Proc) {
				p.Hold(units.Microsecond)
				st.LaunchKernel(p, tc.kp)
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(log.calls, "\n"), strings.Join(tc.calls, "\n"); got != want {
				t.Errorf("calls:\n%s\nwant:\n%s", got, want)
			}
			if len(log.spans) != 1 {
				t.Fatalf("spans = %d, want 1", len(log.spans))
			}
			s := log.spans[0]
			want := obs.Span{Name: tc.kp.Name, Cat: "kernel", GPU: 1, Stack: 1,
				Start: units.Microsecond, End: s.End, Bytes: tc.kp.MemBytes, Flops: tc.kp.Flops, Bound: tc.bound}
			if s != want {
				t.Errorf("span = %+v, want %+v", s, want)
			}
			if got := strconv.FormatFloat(float64(s.End), 'g', -1, 64); got != tc.end {
				t.Errorf("span end = %s, want %s", got, tc.end)
			}
		})
	}
}
