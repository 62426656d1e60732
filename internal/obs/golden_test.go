package obs

import (
	"bytes"
	"os"
	"testing"

	"pvcsim/internal/units"
)

// TestChromeTraceGolden pins the simulated-time Chrome trace byte for
// byte: process names with and without a params suffix, one thread per
// subdevice plus the fabric track, and complete events carrying every
// optional arg (bytes, flops, bound) as well as none.
func TestChromeTraceGolden(t *testing.T) {
	rep := &RunReport{Cells: []CellReport{
		{
			Workload: "clover", System: "aurora", Params: "nodes=2",
			spans: []Span{
				{Name: "h2d:0.0", Cat: "h2d", GPU: 0, Stack: 0, Start: 0, End: 3.3e-7, Bytes: units.MB, Bound: "pcie"},
				{Name: "d2d:0.1->1.0", Cat: "flow", GPU: -1, Stack: -1, Start: 1e-7, End: 2.5e-6, Bytes: 64 * units.KB},
				{Name: "hydro", Cat: "kernel", GPU: 0, Stack: 1, Start: 3.3e-7, End: 1.2345678e-3, Bytes: 2 * units.GB, Flops: 1.5e9, Bound: "hbm"},
				{Name: "fma", Cat: "kernel", GPU: 1, Stack: 0, Start: 2e-6, End: 2e-6, Flops: 1e12, Bound: "power.throttle"},
				{Name: "marker", Cat: "kernel", GPU: 0, Stack: 0, Start: 4e-6, End: 5e-6},
			},
		},
		{
			Workload: "triad", System: "dawn",
			spans: []Span{
				{Name: "triad", Cat: "kernel", GPU: 3, Stack: 1, Start: 1e-5, End: 0.1, Bytes: 24 * units.GB, Flops: 2e9, Bound: "cache.l2"},
			},
		},
	}}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/chrometrace.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace differs from testdata/chrometrace.golden.json:\n%s", buf.String())
	}
}
