package jsonw_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"pvcsim/internal/chrometrace"
	"pvcsim/internal/jsonw"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
)

// traceFile is the document chrometrace.Write encodes.
type traceFile struct {
	TraceEvents []chrometrace.Event `json:"traceEvents"`
}

// export is one writer under test next to the encoding/json reference:
// the value, how the writer encodes it and the indent the reference
// uses.
type export struct {
	name   string
	value  any
	write  func(io.Writer) error
	indent string
}

func exports(events []chrometrace.Event, rep *obs.RunReport, p *prof.Profile) []export {
	return []export{
		{"chrometrace", &traceFile{events}, func(w io.Writer) error { return chrometrace.Write(w, events) }, " "},
		{"metrics", rep, rep.WriteMetrics, "  "},
		{"profile", p, p.WriteJSON, "  "},
	}
}

// reference encodes v as the writers did before jsonw: an indenting
// json.Encoder with HTML escaping on.
func reference(v any, indent string) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", indent)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkParity requires the writer and the reference to agree byte for
// byte, or to both fail with nothing written, and returns the output.
func checkParity(t *testing.T, x export) []byte {
	t.Helper()
	want, werr := reference(x.value, x.indent)
	var got bytes.Buffer
	gerr := x.write(&got)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: error = %v, encoding/json error = %v", x.name, gerr, werr)
	}
	if gerr != nil {
		if got.Len() != 0 || len(want) != 0 {
			t.Fatalf("%s: failed but wrote %q (encoding/json wrote %q)", x.name, got.Bytes(), want)
		}
		return nil
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%s differs from encoding/json:\n got: %s\nwant: %s", x.name, got.Bytes(), want)
	}
	return got.Bytes()
}

// fuzzed builds the three exports from one string and one float,
// placed in every string and float field and as an args key. Args hold
// no int, which would decode back as a float64.
func fuzzed(s string, f float64) ([]chrometrace.Event, *obs.RunReport, *prof.Profile) {
	events := []chrometrace.Event{
		chrometrace.ProcessName(0, s),
		{Name: s, Cat: s, Ph: "X", TS: f, Dur: &f, PID: 1, TID: -2,
			Args: map[string]any{"bytes": f, "bound": s, s: f}},
	}
	rep := &obs.RunReport{MemoHits: 1, Cells: []obs.CellReport{{
		Workload: s, System: s, Params: s, Error: s, Events: 5, SimEnd: f,
		Counters: []obs.Counter{{Name: s, Value: f}},
	}}}
	p := &prof.Profile{SchemaVersion: prof.SchemaVersion, Cells: []prof.CellProfile{{
		Workload: s, System: s, Params: s, AttributedS: f, SimEndS: f,
		Residency: []prof.BoundShare{{Bound: s, Seconds: f, Fraction: f}},
		Frames:    []prof.Frame{{Stack: s, Seconds: f}},
	}}}
	return events, rep, p
}

// FuzzJSONWriterParity checks the three exports against encoding/json
// for fuzzed strings and float bits: identical bytes, the same failure
// with nothing written on NaN and ±Inf, and a document that decodes
// back to the value it came from (whose strings encoding/json would
// alter only when they are not valid UTF-8).
func FuzzJSONWriterParity(f *testing.F) {
	for _, seed := range []struct {
		s string
		f float64
	}{
		{"d2d:0.1->1.0", 2.4},
		{"<a & b>", 1e-7},
		{"q\"uote\\back\x01\b\f\n\r\t\x7f", 1e-6},
		{"line\u2028para\u2029", 1e20},
		{"bad\xff\xfe utf8 \xe2\x28\xa1", 1e21},
		{"", 0},
		{"neg", -1.2345678901234567e-300},
		{"max", math.MaxFloat64},
		{"nan", math.NaN()},
		{"inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
	} {
		f.Add(seed.s, math.Float64bits(seed.f))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		fl := math.Float64frombits(bits)
		for _, x := range exports(fuzzed(s, fl)) {
			out := checkParity(t, x)
			if out == nil || !utf8.ValidString(s) {
				continue
			}
			want := reflect.ValueOf(x.value).Elem()
			back := reflect.New(want.Type())
			if err := json.Unmarshal(out, back.Interface()); err != nil {
				t.Fatalf("%s does not decode: %v\n%s", x.name, err, out)
			}
			if !reflect.DeepEqual(back.Elem().Interface(), want.Interface()) {
				t.Fatalf("%s decodes to %+v, want %+v", x.name, back.Elem(), want)
			}
		}
	})
}

// TestExportsCoverEveryField sets every exported field of every
// exported type to a non-zero value, checks that with reflect, and
// requires each writer to match encoding/json: a field added later
// without a writer line fails here.
func TestExportsCoverEveryField(t *testing.T) {
	dur := 2.5
	events := []chrometrace.Event{{
		Name: "d2d:0.1->1.0", Cat: "flow", Ph: "X", TS: 1e-7, Dur: &dur, PID: 3, TID: 101,
		Args: map[string]any{"bytes": 65536.0, "bound": "fabric.remote", "events": 9},
	}}
	rep := &obs.RunReport{MemoHits: 1, MemoMisses: 2, OrphanFinishes: 3, Cells: []obs.CellReport{{
		Workload: "w<>", System: "aurora", Params: "n=1", Error: "e&", Events: 4, SimEnd: 1e21,
		Counters: []obs.Counter{{Name: "fabric.flows", Value: 0.1}},
		Wall:     time.Second,
	}}}
	p := &prof.Profile{SchemaVersion: 1, Cells: []prof.CellProfile{{
		Workload: "w", System: "dawn", Params: "n=2", AttributedS: 1.5, SimEndS: 3e-9,
		Residency: []prof.BoundShare{{Bound: "hbm", Seconds: 1.5, Fraction: 1}},
		Frames:    []prof.Frame{{Stack: "gpu0.0;kernel;k;hbm", Seconds: 1.5}},
	}}}
	for _, x := range exports(events, rep, p) {
		requireSet(t, x.name, reflect.ValueOf(x.value))
		checkParity(t, x)
	}
}

// requireSet fails on any zero exported struct field reachable from v.
func requireSet(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		requireSet(t, path, v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			requireSet(t, path+"[]", v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fd := v.Type().Field(i)
			if !fd.IsExported() {
				continue
			}
			if v.Field(i).IsZero() {
				t.Errorf("%s.%s is zero: set it so the parity check covers it", path, fd.Name)
			}
			requireSet(t, path+"."+fd.Name, v.Field(i))
		}
	}
}

// TestWriterLayout pins the container layout the exports do not reach:
// empty objects and arrays stay on one line, nested containers indent.
func TestWriterLayout(t *testing.T) {
	j := jsonw.New("\t")
	j.BeginArray()
	j.BeginObject()
	j.EndObject()
	j.BeginArray()
	j.EndArray()
	j.BeginObject()
	j.Key("a").BeginArray()
	j.Int(-1)
	j.Null()
	j.EndArray()
	j.EndObject()
	j.EndArray()
	var got strings.Builder
	if err := j.Finish(&got); err != nil {
		t.Fatal(err)
	}
	want, err := reference([]any{map[string]any{}, []any{}, map[string]any{"a": []any{-1, nil}}}, "\t")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("got:\n%s\nwant:\n%s", got.String(), want)
	}
}
