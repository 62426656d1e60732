package gpusim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pvcsim/internal/obs"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// TraceEvent is one recorded device operation: a kernel execution or a
// transfer, with virtual start/end times.
type TraceEvent struct {
	Name  string           `json:"name"`
	Kind  string           `json:"kind"` // "kernel", "h2d", "d2h", "d2d"
	Stack topology.StackID `json:"stack"`
	Start units.Seconds    `json:"start"`
	End   units.Seconds    `json:"end"`
	Bytes units.Bytes      `json:"bytes,omitempty"`
}

// Duration returns the event's span.
func (e TraceEvent) Duration() units.Seconds { return e.End - e.Start }

// Recorder accumulates a timeline of device operations for one machine.
// Attach with Machine.SetRecorder; nil disables recording.
type Recorder struct {
	events []TraceEvent
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// add appends one event.
func (r *Recorder) add(e TraceEvent) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Events returns the timeline sorted by start time (stable for ties).
func (r *Recorder) Events() []TraceEvent {
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// BusyTime returns the total busy span per stack (sum of event
// durations; overlapping engines are counted per event).
func (r *Recorder) BusyTime() map[topology.StackID]units.Seconds {
	out := map[topology.StackID]units.Seconds{}
	for _, e := range r.events {
		out[e.Stack] += e.Duration()
	}
	return out
}

// chromeEvent is the Chrome trace-viewer "complete" event format.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"` // GPU index
	TID  int     `json:"tid"` // stack index
}

// WriteChromeTrace emits the timeline in the chrome://tracing JSON array
// format, loadable by Perfetto.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(r.events))
	for _, e := range r.Events() {
		evs = append(evs, chromeEvent{
			Name: e.Name,
			Cat:  e.Kind,
			Ph:   "X",
			//pvclint:ignore timeunit Chrome traces are defined in raw microseconds; this is the export boundary
			TS:   float64(e.Start) * 1e6,
			//pvclint:ignore timeunit Chrome traces are defined in raw microseconds; this is the export boundary
			Dur:  float64(e.Duration()) * 1e6,
			PID:  e.Stack.GPU,
			TID:  e.Stack.Stack,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}

// SetRecorder attaches a recorder to the machine; pass nil to disable.
func (m *Machine) SetRecorder(r *Recorder) { m.rec = r }

// Recorder returns the attached recorder (nil when disabled).
func (m *Machine) Recorder() *Recorder { return m.rec }

// record is the internal hook used by the stack operations. It feeds
// both the legacy per-machine Recorder (examples/timeline) and, when
// attached, the obs layer's per-cell trace; bound is the operation's
// binding-resource tag (prof taxonomy), stamped onto the obs span.
func (m *Machine) record(name, kind string, st topology.StackID, start, end units.Seconds, bytes units.Bytes, flops float64, bound string) {
	m.rec.add(TraceEvent{Name: name, Kind: kind, Stack: st, Start: start, End: end, Bytes: bytes})
	if m.sink != nil {
		m.sink.Span(obs.Span{
			Name: name, Cat: kind, GPU: m.gpuBase + st.GPU, Stack: st.Stack,
			Start: start, End: end, Bytes: bytes, Flops: flops,
			Bound: bound,
		})
	}
}

// Summary renders a one-line-per-stack utilization digest.
func (r *Recorder) Summary(total units.Seconds) string {
	busy := r.BusyTime()
	ids := make([]topology.StackID, 0, len(busy))
	for id := range busy {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].GPU != ids[j].GPU {
			return ids[i].GPU < ids[j].GPU
		}
		return ids[i].Stack < ids[j].Stack
	})
	out := ""
	for _, id := range ids {
		util := 0.0
		if total > 0 {
			//pvclint:ignore timeunit utilization is a dimensionless ratio of two durations; the seconds cancel
			util = float64(busy[id]) / float64(total) * 100
		}
		out += fmt.Sprintf("%v: busy %v (%.0f%%)\n", id, busy[id], util)
	}
	return out
}
