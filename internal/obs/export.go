package obs

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/jsonw"
)

// CellReport is one cell's aggregated metrics. Wall is the measured
// wall-clock duration of the computation; it is deliberately excluded
// from the JSON export (and from String) because it varies run to run —
// the machine-readable outputs must be byte-identical across -jobs
// settings, so they carry only simulated quantities.
type CellReport struct {
	Workload string    `json:"workload"`
	System   string    `json:"system"`
	Params   string    `json:"params,omitempty"`
	Error    string    `json:"error,omitempty"`
	Events   int       `json:"events"`
	SimEnd   float64   `json:"sim_end_s"`
	Counters []Counter `json:"counters,omitempty"`

	Wall  time.Duration `json:"-"`
	spans []Span
}

// key returns the cell's Collector key.
func (c CellReport) key() Key { return Key{Workload: c.Workload, System: c.System, Params: c.Params} }

// Spans returns the cell's spans in canonical order.
func (c CellReport) Spans() []Span { return c.spans }

// RunReport is the whole run's metrics: every cell plus the runner's
// memo statistics. Memo hits are deterministic — with N requested cells
// over K distinct keys the runner computes exactly K and serves N−K
// from cache whatever the worker count — so they are safe to export.
type RunReport struct {
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	// OrphanFinishes counts Finish calls for keys no worker ever
	// registered a trace for — each one is a runner bookkeeping bug
	// (outcome recorded for a cell that never recorded spans).
	OrphanFinishes int64        `json:"orphan_finishes"`
	Cells          []CellReport `json:"cells"`
}

// WriteMetrics writes the machine-readable metrics dump as indented
// JSON. The output contains only simulated quantities and is
// byte-identical across -jobs settings.
func (r *RunReport) WriteMetrics(w io.Writer) error {
	j := jsonw.New("  ")
	j.BeginObject()
	j.Key("memo_hits").Int(r.MemoHits)
	j.Key("memo_misses").Int(r.MemoMisses)
	j.Key("orphan_finishes").Int(r.OrphanFinishes)
	jsonw.Array(j.Key("cells"), r.Cells, writeCell)
	j.EndObject()
	return j.Finish(w)
}

// writeCell writes one CellReport in its field order; Wall and the
// spans are not exported.
func writeCell(j *jsonw.Writer, c *CellReport) {
	j.BeginObject()
	j.Key("workload").String(c.Workload)
	j.Key("system").String(c.System)
	if c.Params != "" {
		j.Key("params").String(c.Params)
	}
	if c.Error != "" {
		j.Key("error").String(c.Error)
	}
	j.Key("events").Int(int64(c.Events))
	j.Key("sim_end_s").Float(c.SimEnd)
	if len(c.Counters) > 0 {
		jsonw.Array(j.Key("counters"), c.Counters, writeCounter)
	}
	j.EndObject()
}

func writeCounter(j *jsonw.Writer, c *Counter) {
	j.BeginObject()
	j.Key("name").String(c.Name)
	j.Key("value").Float(c.Value)
	j.EndObject()
}

// tid maps a span's device coordinates onto a Chrome thread id: one
// track per subdevice, plus track 0 for spans not tied to a device
// (fabric flows, host-side phases).
func tid(s Span) int {
	if s.GPU < 0 {
		return 0
	}
	return 1 + s.GPU*100 + s.Stack
}

func tidName(s Span) string {
	if s.GPU < 0 {
		return "fabric"
	}
	return fmt.Sprintf("gpu %d stack %d", s.GPU, s.Stack)
}

// WriteChromeTrace writes every cell's spans as Chrome trace-event
// JSON: one "process" per cell (named by workload@system), one "thread"
// per subdevice, complete ("X") events stamped with simulated
// microseconds. Deterministic: cells, spans, and metadata are all in
// canonical order.
func (r *RunReport) WriteChromeTrace(w io.Writer) error {
	var events []chrometrace.Event
	for pid, c := range r.Cells {
		events = append(events, chrometrace.ProcessName(pid, c.key().String()))
		seen := map[int]bool{}
		for _, s := range c.spans {
			if t := tid(s); !seen[t] {
				seen[t] = true
				events = append(events, chrometrace.ThreadName(pid, t, tidName(s)))
			}
		}
		for _, s := range c.spans {
			dur := float64(s.Duration()) * 1e6
			args := map[string]any{}
			if s.Bytes != 0 {
				args["bytes"] = float64(s.Bytes)
			}
			if s.Flops != 0 {
				args["flops"] = s.Flops
			}
			if s.Bound != "" {
				args["bound"] = s.Bound
			}
			if len(args) == 0 {
				args = nil
			}
			events = append(events, chrometrace.Event{
				Name: s.Name, Cat: s.Cat, Ph: "X",
				TS: float64(s.Start) * 1e6, Dur: &dur,
				PID: pid, TID: tid(s), Args: args,
			})
		}
	}
	return chrometrace.Write(w, events)
}

// Summary writes the human-facing run table: one line per cell with its
// event count, simulated makespan, and wall-clock time, then the memo
// totals. This is the only place wall-clock appears.
func (r *RunReport) Summary(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tEVENTS\tSIM END\tWALL")
	var wall time.Duration
	for _, c := range r.Cells {
		status := ""
		if c.Error != "" {
			status = "  ERROR: " + c.Error
		}
		fmt.Fprintf(tw, "%s\t%d\t%.6gs\t%s%s\n",
			c.key(), c.Events, c.SimEnd, c.Wall.Round(time.Microsecond), status)
		wall += c.Wall
	}
	fmt.Fprintf(tw, "total\t\t\t%s\n", wall.Round(time.Microsecond))
	if err := tw.Flush(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "memo: %d computed, %d cached\n", r.MemoMisses, r.MemoHits); err != nil {
		return err
	}
	if r.OrphanFinishes > 0 {
		if _, err := fmt.Fprintf(w, "WARNING: %d orphan finish(es) — outcome recorded for cell(s) that never registered a trace\n", r.OrphanFinishes); err != nil {
			return err
		}
	}
	return nil
}
