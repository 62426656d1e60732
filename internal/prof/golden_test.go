package prof

import (
	"bytes"
	"os"
	"testing"
)

// profileFixture reaches every branch of the profile encoding: params
// present and absent, residency and frames present, nil (null) and
// empty ([]), floats on either side of the exponent cutoffs (1e-6,
// 1e21) plus zero and a long mantissa, and names that need JSON
// escaping (HTML-unsafe bytes, quote, backslash, control bytes,
// U+2028/U+2029 and invalid UTF-8).
func profileFixture() *Profile {
	return &Profile{SchemaVersion: SchemaVersion, Cells: []CellProfile{
		{
			Workload: "clover", System: "aurora", Params: "nodes=2",
			AttributedS: 1.2345678901234567e-3, SimEndS: 1e-6,
			Residency: []BoundShare{
				{Bound: "hbm", Seconds: 1e-7, Fraction: 0.30000000000000004},
				{Bound: "pcie", Seconds: 0, Fraction: 1},
			},
			Frames: []Frame{
				{Stack: "gpu0.0;kernel;k<>&;hbm", Seconds: 1e20},
				{Stack: "fabric;flow;d2d:0.1->1.0;fabric.remote", Seconds: 1e21},
			},
		},
		{
			Workload: "bad<>&\"\\\x01\b\f\u2028\u2029\xff", System: "dawn",
			Residency: []BoundShare{}, SimEndS: -0.5,
		},
	}}
}

// TestProfileGolden pins the profile JSON byte for byte. The golden
// holds two documents back to back: the fixture, then an empty profile,
// whose nil Cells is written as null.
func TestProfileGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range []*Profile{profileFixture(), {SchemaVersion: SchemaVersion}} {
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/profile.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("profile differs from testdata/profile.golden.json:\n%s", buf.String())
	}
}
