// Package chrometrace is the one encoder for Chrome trace-event JSON
// (loadable in about:tracing and Perfetto). The simulated-time (obs),
// wall-time (wallprof) and request (reqtrace) tracks all build their
// events straight into Event and write them through Write, so the three
// files share one schema and one layout.
package chrometrace

import (
	"fmt"
	"io"
	"slices"

	"pvcsim/internal/jsonw"
)

// Event is one trace-event entry. Timestamps and durations are in
// microseconds; which clock they count is up to the track. Dur is a
// pointer so a zero-length complete event keeps its "dur" while
// metadata events omit it. Args values are strings, float64s or ints.
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
// space per level, in Event's field order with args sorted by key.
func Write(w io.Writer, events []Event) error {
	j := jsonw.New(" ")
	j.BeginObject()
	j.Key("traceEvents")
	if events == nil {
		j.Null()
	} else {
		j.BeginArray()
		for i := range events {
			if err := writeEvent(j, &events[i]); err != nil {
				return err
			}
		}
		j.EndArray()
	}
	j.EndObject()
	return j.Finish(w)
}

func writeEvent(j *jsonw.Writer, e *Event) error {
	j.BeginObject()
	j.Key("name").String(e.Name)
	if e.Cat != "" {
		j.Key("cat").String(e.Cat)
	}
	j.Key("ph").String(e.Ph)
	j.Key("ts").Float(e.TS)
	if e.Dur != nil {
		j.Key("dur").Float(*e.Dur)
	}
	j.Key("pid").Int(int64(e.PID))
	j.Key("tid").Int(int64(e.TID))
	if len(e.Args) > 0 {
		if err := writeArgs(j.Key("args"), e); err != nil {
			return err
		}
	}
	j.EndObject()
	return nil
}

// writeArgs writes e.Args as an object with its keys sorted, as
// encoding/json orders a map.
func writeArgs(j *jsonw.Writer, e *Event) error {
	var stack [4]string
	keys := stack[:0]
	for k := range e.Args {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	j.BeginObject()
	for _, k := range keys {
		switch v := e.Args[k].(type) {
		case string:
			j.Key(k).String(v)
		case float64:
			j.Key(k).Float(v)
		case int:
			j.Key(k).Int(int64(v))
		default:
			return fmt.Errorf("chrometrace: arg %q of event %q has unsupported type %T", k, e.Name, v)
		}
	}
	j.EndObject()
	return nil
}
