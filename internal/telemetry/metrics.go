package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The registry is a from-scratch, standard-library-only implementation
// of the Prometheus exposition text format (counters, gauges, and
// histograms, with labels). It exists because the simulator takes no
// external dependencies; the output of WritePrometheus is valid
// Prometheus text format 0.0.4 and round-trips through ParseMetrics.

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// familyKind is the TYPE of a metric family.
type familyKind string

const (
	kindCounter   familyKind = "counter"
	kindGauge     familyKind = "gauge"
	kindHistogram familyKind = "histogram"
)

// series is one labeled time series. For counters and gauges only value
// is used; histograms use buckets/sum/count.
type series struct {
	labelValues []string

	mu      sync.Mutex
	value   float64
	buckets []uint64 // cumulative at render time, raw per-bucket here
	sum     float64
	count   uint64
}

// family is one named metric with its declared type, help, and label
// schema.
type family struct {
	name       string
	help       string
	kind       familyKind
	labelNames []string
	bounds     []float64 // histogram upper bounds, ascending, no +Inf

	mu     sync.Mutex
	series map[string]*series
}

// get returns (creating on first use) the series for the label values.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label value(s), got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.kind == kindHistogram {
			s.buckets = make([]uint64, len(f.bounds)+1) // +1 for +Inf
		}
		f.series[key] = s
	}
	return s
}

// Registry holds metric families and renders them in the Prometheus
// text format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register creates a family, panicking on malformed or duplicate names —
// both are programming errors, caught by the first scrape in any test.
func (r *Registry) register(name, help string, kind familyKind, bounds []float64, labelNames ...string) *family {
	if !metricNameRE.MatchString(name) {
		panic("telemetry: invalid metric name " + name)
	}
	for _, l := range labelNames {
		if !labelNameRE.MatchString(l) {
			panic("telemetry: invalid label name " + l + " on metric " + name)
		}
	}
	if kind == kindHistogram && !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram " + name + " buckets not ascending")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		series:     map[string]*series{},
	}
	r.families[name] = f
	return f
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Add increments the counter; negative deltas panic.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrease")
	}
	c.s.mu.Lock()
	c.s.value += v
	c.s.mu.Unlock()
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.value
}

// Counter registers a label-less counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil)
	return &Counter{s: f.get(nil)}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in declaration
// order), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, nil, labelNames...)}
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.value = v
	g.s.mu.Unlock()
}

// Add moves the gauge by delta.
func (g *Gauge) Add(v float64) {
	g.s.mu.Lock()
	g.s.value += v
	g.s.mu.Unlock()
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.value
}

// Gauge registers a label-less gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil)
	return &Gauge{s: f.get(nil)}
}

// Histogram observes a distribution into fixed buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.bounds, v) // first bound >= v
	h.s.mu.Lock()
	h.s.buckets[i]++
	h.s.sum += v
	h.s.count++
	h.s.mu.Unlock()
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts, interpolating linearly inside the matched bucket the way
// PromQL's histogram_quantile does. The estimate's resolution is the
// bucket width; it never exceeds the data. Returns NaN for an empty
// histogram; when the target falls in the +Inf bucket it returns the
// highest finite bound (the histogram cannot resolve beyond it).
func (h *Histogram) Quantile(q float64) float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if h.s.count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.s.count)
	var cum uint64
	for i, raw := range h.s.buckets {
		cum += raw
		if float64(cum) < target || raw == 0 {
			continue
		}
		if i >= len(h.f.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(h.f.bounds) == 0 {
				return math.NaN()
			}
			return h.f.bounds[len(h.f.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.f.bounds[i-1]
		}
		hi := h.f.bounds[i]
		frac := (target - float64(cum-raw)) / float64(raw)
		return lo + (hi-lo)*frac
	}
	return h.f.bounds[len(h.f.bounds)-1]
}

// Histogram registers a label-less histogram with the given ascending
// upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, kindHistogram, bounds)
	return &Histogram{f: f, s: f.get(nil)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.get(labelValues)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, bounds, labelNames...)}
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders {a="x",b="y"}; extra appends one more pair (used
// for histogram le). Returns "" when there are no pairs.
func labelPairs(names, values []string, extraName, extraValue string) string {
	var parts []string
	for i, n := range names {
		parts = append(parts, n+`="`+escapeLabel(values[i])+`"`)
	}
	if extraName != "" {
		parts = append(parts, extraName+`="`+escapeLabel(extraValue)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every family in the Prometheus text format.
// Families are sorted by name and series by label values, so the output
// for a given sequence of updates is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sers := make([]*series, 0, len(keys))
		for _, k := range keys {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range sers {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series (one line for scalars, the full
// bucket/sum/count set for histograms).
func writeSeries(w io.Writer, f *family, s *series) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.kind != kindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelPairs(f.labelNames, s.labelValues, "", ""), formatValue(s.value))
		return err
	}
	var cum uint64
	for i, raw := range s.buckets {
		cum += raw
		le := "+Inf"
		if i < len(f.bounds) {
			le = formatValue(f.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelPairs(f.labelNames, s.labelValues, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		f.name, labelPairs(f.labelNames, s.labelValues, "", ""), formatValue(s.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		f.name, labelPairs(f.labelNames, s.labelValues, "", ""), s.count)
	return err
}
