package prof

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"pvcsim/internal/jsonw"
	"pvcsim/internal/obs"
)

// SchemaVersion identifies the profile JSON shape; bump it on any
// structural change so pvcprof diff can refuse to compare apples to
// oranges.
const SchemaVersion = 1

// BoundShare is one row of a cell's bound-residency table: how much of
// the cell's attributed simulated time one binding resource accounts
// for.
type BoundShare struct {
	Bound    string  `json:"bound"`
	Seconds  float64 `json:"seconds"`
	Fraction float64 `json:"fraction"`
}

// Frame is one folded flamegraph stack with its accumulated simulated
// seconds: "track;category;operation;bound".
type Frame struct {
	Stack   string  `json:"stack"`
	Seconds float64 `json:"seconds"`
}

// CellProfile is the bound-attribution profile of one workload×system
// cell: the residency table plus the folded frames it was derived from.
type CellProfile struct {
	Workload    string       `json:"workload"`
	System      string       `json:"system"`
	Params      string       `json:"params,omitempty"`
	AttributedS float64      `json:"attributed_s"`
	SimEndS     float64      `json:"sim_end_s"`
	Residency   []BoundShare `json:"residency"`
	Frames      []Frame      `json:"frames"`
}

// Name renders the cell like obs.Key: "workload @ system [params]".
func (c CellProfile) Name() string {
	k := obs.Key{Workload: c.Workload, System: c.System, Params: c.Params}
	return k.String()
}

// Profile is one run's bound-attribution profile. It is derived purely
// from the simulated span stream, so it is byte-identical across -jobs
// settings; cells whose workloads record no attributed spans (analytic
// evaluations that never drive the discrete-event machine) are omitted.
type Profile struct {
	SchemaVersion int           `json:"schema_version"`
	Cells         []CellProfile `json:"cells"`
}

// track names a span's flamegraph root frame: the subdevice it ran on,
// or "fabric" for flows not tied to a device.
func track(s obs.Span) string {
	if s.GPU < 0 {
		return "fabric"
	}
	return fmt.Sprintf("gpu%d.%d", s.GPU, s.Stack)
}

// Build aggregates a run report into its profile. Only spans carrying a
// Bound tag contribute: spans with Bound "" are covered by an enclosing
// attributed span (a fabric flow under a blocking memcpy), so counting
// them too would double-bill the same simulated time.
func Build(rep *obs.RunReport) *Profile {
	p := &Profile{SchemaVersion: SchemaVersion}
	for _, c := range rep.Cells {
		byBound := map[string]float64{}
		byStack := map[string]float64{}
		for _, s := range c.Spans() {
			if s.Bound == "" {
				continue
			}
			d := float64(s.Duration())
			byBound[s.Bound] += d
			byStack[track(s)+";"+s.Cat+";"+s.Name+";"+s.Bound] += d
		}
		if len(byBound) == 0 {
			continue
		}
		cp := CellProfile{
			Workload: c.Workload, System: c.System, Params: c.Params,
			SimEndS: c.SimEnd,
		}
		for _, sh := range tallyShares(byBound) {
			cp.AttributedS += sh.Seconds
			cp.Residency = append(cp.Residency, sh)
		}
		for stack := range byStack {
			cp.Frames = append(cp.Frames, Frame{Stack: stack, Seconds: byStack[stack]})
		}
		sort.Slice(cp.Frames, func(i, j int) bool { return cp.Frames[i].Stack < cp.Frames[j].Stack })
		p.Cells = append(p.Cells, cp)
	}
	return p
}

// tallyShares converts a bound→seconds map into sorted shares with
// fractions of the total. The total is summed in sorted-tag order, not
// map order: float addition is order-sensitive in the last ulp, and a
// cell with three or more bound tags would otherwise print different
// fraction digits run to run.
func tallyShares(byBound map[string]float64) []BoundShare {
	bounds := sortedBounds(byBound)
	total := 0.0
	for _, b := range bounds {
		total += byBound[b]
	}
	out := make([]BoundShare, 0, len(bounds))
	for _, b := range bounds {
		sh := BoundShare{Bound: b, Seconds: byBound[b]}
		if total > 0 {
			sh.Fraction = byBound[b] / total
		}
		out = append(out, sh)
	}
	return out
}

// sortedBounds returns the map's keys in sorted order — the canonical
// accumulation order for every float sum over a bound tally.
func sortedBounds(byBound map[string]float64) []string {
	bounds := make([]string, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Strings(bounds)
	return bounds
}

// WriteJSON writes the machine-readable profile as indented JSON. Like
// the obs exports it carries only simulated quantities.
func (p *Profile) WriteJSON(w io.Writer) error {
	j := jsonw.New("  ")
	j.BeginObject()
	j.Key("schema_version").Int(int64(p.SchemaVersion))
	jsonw.Array(j.Key("cells"), p.Cells, writeCellProfile)
	j.EndObject()
	return j.Finish(w)
}

func writeCellProfile(j *jsonw.Writer, c *CellProfile) {
	j.BeginObject()
	j.Key("workload").String(c.Workload)
	j.Key("system").String(c.System)
	if c.Params != "" {
		j.Key("params").String(c.Params)
	}
	j.Key("attributed_s").Float(c.AttributedS)
	j.Key("sim_end_s").Float(c.SimEndS)
	jsonw.Array(j.Key("residency"), c.Residency, writeShare)
	jsonw.Array(j.Key("frames"), c.Frames, writeFrame)
	j.EndObject()
}

func writeShare(j *jsonw.Writer, s *BoundShare) {
	j.BeginObject()
	j.Key("bound").String(s.Bound)
	j.Key("seconds").Float(s.Seconds)
	j.Key("fraction").Float(s.Fraction)
	j.EndObject()
}

func writeFrame(j *jsonw.Writer, f *Frame) {
	j.BeginObject()
	j.Key("stack").String(f.Stack)
	j.Key("seconds").Float(f.Seconds)
	j.EndObject()
}

// WriteFlame writes the profile in the folded-stack format flamegraph
// tools consume: one line per distinct stack,
//
//	cell;track;category;operation;bound <nanoseconds>
//
// with simulated durations rounded to integer nanoseconds (folded
// counts must be integers). Lines appear in canonical cell and frame
// order.
func (p *Profile) WriteFlame(w io.Writer) error {
	for _, c := range p.Cells {
		for _, f := range c.Frames {
			ns := int64(f.Seconds*1e9 + 0.5)
			if ns <= 0 && f.Seconds > 0 {
				ns = 1 // sub-nanosecond spans still deserve a sample
			}
			if _, err := fmt.Fprintf(w, "%s;%s %d\n", c.Name(), f.Stack, ns); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteReport writes the human bound-residency tables: per cell, the
// percent of attributed simulated time under each ceiling.
func (p *Profile) WriteReport(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tBOUND\tSECONDS\tSHARE")
	for _, c := range p.Cells {
		name := c.Name()
		for _, sh := range c.Residency {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.1f%%\n", name, sh.Bound, sh.Seconds, sh.Fraction*100)
			name = "" // print the cell name once per block
		}
	}
	return tw.Flush()
}
