// Package chrometrace is the one encoder for Chrome trace-event JSON
// (loadable in about:tracing and Perfetto). The simulated-time (obs),
// wall-time (wallprof) and request (reqtrace) tracks all build their
// events straight into Event and write them through Write, so the three
// files share one schema and one layout.
package chrometrace

import (
	"encoding/json"
	"io"
)

// Event is one trace-event entry. Timestamps and durations are in
// microseconds; which clock they count is up to the track. Dur is a
// pointer so a zero-length complete event keeps its "dur" while
// metadata events omit it.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ProcessName is the metadata event naming process pid.
func ProcessName(pid int, name string) Event {
	return Event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}}
}

// ThreadName is the metadata event naming thread tid of process pid.
func ThreadName(pid, tid int, name string) Event {
	return Event{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// Write encodes events as a {"traceEvents": [...]} file, indented one
// space per level.
func Write(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []Event `json:"traceEvents"`
	}{events})
}
