package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a strict parser
// used by the telemetry tests, the pvcd smoke check
// (`pvcd -validate-metrics`), and CI to prove that /metrics output is
// well-formed Prometheus text — not merely grep-matchable.

// Sample is one parsed time series sample. LabelNames preserves the
// label order as written.
type Sample struct {
	Name       string
	Labels     map[string]string
	LabelNames []string
	Value      float64
}

// Family is one parsed metric family: its declared TYPE, HELP, and
// every sample that belongs to it (including _bucket/_sum/_count for
// histograms).
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// Families is a parsed metrics page keyed by family name.
type Families map[string]*Family

// baseFamily maps a sample name to the family that declared it,
// stripping histogram suffixes when needed.
func baseFamily(fs Families, name string) string {
	if _, ok := fs[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, ok := fs[base]; ok {
				return base
			}
		}
	}
	return name
}

// ParseMetrics parses a Prometheus text-format page strictly: every
// sample must belong to a family declared with # TYPE first, names and
// values must be well-formed, and histogram families must have
// consistent _bucket/_sum/_count series (cumulative buckets
// nondecreasing, +Inf bucket equal to _count). It returns the parsed
// families so callers can assert on specific values.
func ParseMetrics(r io.Reader) (Families, error) {
	fams := Families{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(fams, line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := baseFamily(fams, s.Name)
		fam, ok := fams[famName]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %s before its # TYPE declaration", lineNo, s.Name)
		}
		if fam.Type != "histogram" && s.Name != fam.Name {
			return nil, fmt.Errorf("line %d: sample %s does not match %s family %s",
				lineNo, s.Name, fam.Type, fam.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := fams[name]
		if fam.Type == "" {
			// A # HELP line alone declares a family; strictness found
			// by fuzzing: without this, `# HELP x` parsed as a page
			// containing an untyped, sample-less family.
			return nil, fmt.Errorf("family %s has # HELP but no # TYPE", fam.Name)
		}
		if fam.Type == "histogram" {
			if err := checkHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// parseComment handles # HELP and # TYPE lines (other comments are
// ignored, as the format allows).
func parseComment(fams Families, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil
	}
	name := fields[2]
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q in %s", name, fields[1])
	}
	switch fields[1] {
	case "HELP":
		fam := fams[name]
		if fam == nil {
			fam = &Family{Name: name}
			fams[name] = fam
		}
		if len(fields) == 4 {
			fam.Help = fields[3]
		}
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("missing type for %s", name)
		}
		typ := fields[3]
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		fam := fams[name]
		if fam == nil {
			fam = &Family{Name: name}
			fams[name] = fam
		}
		if fam.Type != "" {
			return fmt.Errorf("duplicate # TYPE for %s", name)
		}
		if len(fam.Samples) > 0 {
			return fmt.Errorf("# TYPE for %s after its samples", name)
		}
		fam.Type = typ
	}
	return nil
}

// parseSample parses `name{label="value",...} value`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !metricNameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end, names, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("sample %s: %w", s.Name, err)
		}
		s.LabelNames = names
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("sample %s: want value [timestamp], got %q", s.Name, rest)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {a="b",...} block starting at text[0] == '{' and
// returns the index just past the closing brace plus the label names in
// written order.
func parseLabels(text string, into map[string]string) (int, []string, error) {
	i := 1
	var names []string
	for {
		for i < len(text) && (text[i] == ',' || text[i] == ' ') {
			i++
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, names, nil
		}
		eq := strings.IndexByte(text[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		name := text[i : i+eq]
		if !labelNameRE.MatchString(name) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(text) || text[i] != '"' {
			return 0, nil, fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(text) {
				return 0, nil, fmt.Errorf("label %s: unterminated value", name)
			}
			c := text[i]
			if c == '\\' {
				if i+1 >= len(text) {
					return 0, nil, fmt.Errorf("label %s: trailing backslash", name)
				}
				switch text[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %s: bad escape \\%c", name, text[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := into[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %s", name)
		}
		into[name] = val.String()
		names = append(names, name)
	}
}

// parseFloat accepts the exposition format's value spellings.
func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogram validates one histogram family's internal consistency
// per label set: cumulative buckets nondecreasing in le order, a +Inf
// bucket present and equal to _count.
func checkHistogram(fam *Family) error {
	type group struct {
		buckets map[float64]float64 // le -> cumulative count
		count   float64
		hasCnt  bool
		hasSum  bool
	}
	groups := map[string]*group{}
	keyOf := func(labels map[string]string) string {
		parts := make([]string, 0, len(labels))
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	for _, s := range fam.Samples {
		g := groups[keyOf(s.Labels)]
		if g == nil {
			g = &group{buckets: map[float64]float64{}}
			groups[keyOf(s.Labels)] = g
		}
		switch s.Name {
		case fam.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s: bucket without le label", fam.Name)
			}
			bound, err := parseFloat(le)
			if err != nil {
				return fmt.Errorf("histogram %s: bad le %q", fam.Name, le)
			}
			g.buckets[bound] = s.Value
		case fam.Name + "_sum":
			g.hasSum = true
		case fam.Name + "_count":
			g.count, g.hasCnt = s.Value, true
		default:
			return fmt.Errorf("histogram %s: unexpected sample %s", fam.Name, s.Name)
		}
	}
	for key, g := range groups {
		if !g.hasCnt || !g.hasSum {
			return fmt.Errorf("histogram %s{%s}: missing _sum or _count", fam.Name, key)
		}
		bounds := make([]float64, 0, len(g.buckets))
		for b := range g.buckets {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		if len(bounds) == 0 || !math.IsInf(bounds[len(bounds)-1], +1) {
			return fmt.Errorf("histogram %s{%s}: no +Inf bucket", fam.Name, key)
		}
		last := 0.0
		for _, b := range bounds {
			if g.buckets[b] < last {
				return fmt.Errorf("histogram %s{%s}: bucket counts decrease at le=%g", fam.Name, key, b)
			}
			last = g.buckets[b]
		}
		if last != g.count {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != count %g", fam.Name, key, last, g.count)
		}
	}
	return nil
}
