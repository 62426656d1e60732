package wallprof_test

import (
	"bytes"
	"os"
	"testing"

	"pvcsim/internal/obs"
	"pvcsim/internal/wallprof"
)

// TestChromeTraceGolden pins the wall-time Chrome trace byte for byte
// under the tick clock: a probed cell's engine track and a second cell
// (with params) carrying build and simulate phases, zeroed at the
// earliest recorded instant.
func TestChromeTraceGolden(t *testing.T) {
	c := wallprof.NewWithClock(tickClock())
	c.EnableTimeline()
	cp := c.Cell(obs.Key{Workload: "clover", System: "aurora", Params: "nodes=2"})
	start := cp.Now()
	cp.AddBuild(start)
	start = cp.Now()
	cp.AddSimulate(start)
	runProbed(t, c)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
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
