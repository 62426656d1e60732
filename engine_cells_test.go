package pvcsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"pvcsim/internal/obs"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
)

// engineFamilies are the sweep families whose cells drive the event
// engine, the fabric and the MPI runtime (perfbench's engine-sweep set).
var engineFamilies = []string{"allreduce", "clover-strong", "clover-scaling"}

const engineGoldenPath = "testdata/engine_cells.json"

var updateEngineGolden = flag.Bool("update-engine-golden", false, "rewrite "+engineGoldenPath+" from this tree")

// engineCell is one (workload, system) cell of an engine family.
type engineCell struct {
	key  string // "workload@system"
	cell runner.Cell
}

func expandEngineCells(tb testing.TB) []engineCell {
	tb.Helper()
	var out []engineCell
	for _, name := range engineFamilies {
		f, ok := sweep.FamilyByName(name)
		if !ok {
			tb.Fatalf("sweep family %q is not registered", name)
		}
		ws, err := f.Expand(nil)
		if err != nil {
			tb.Fatal(err)
		}
		for _, w := range ws {
			for _, sys := range w.Systems() {
				out = append(out, engineCell{key: w.Name() + "@" + sys.String(), cell: runner.Cell{System: sys, Workload: w}})
			}
		}
	}
	return out
}

// cellGolden is one engine cell's pinned output: SHA-256 digests of its
// result values (as JSON) and of its obs metrics export, computed as
// perfbench computes them, plus every value of both flattened to
// "path = value" lines at full precision, so a mismatch can name the
// first value that moved.
type cellGolden struct {
	Key     string   `json:"key"`
	Result  string   `json:"result"`
	Metrics string   `json:"metrics"`
	Values  []string `json:"values"`
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runEngineCell computes a cell on a fresh runner with an obs collector
// attached and captures its outputs.
func runEngineCell(t *testing.T, c engineCell) cellGolden {
	t.Helper()
	r := runner.New(1)
	col := obs.NewCollector()
	r.Observe(col)
	res := r.Run(context.Background(), []runner.Cell{c.cell})[0]
	if res.Err != nil {
		t.Fatalf("%s: %v", c.key, res.Err)
	}
	resultJSON, err := json.Marshal(res.Result.Values)
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := col.Report().WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	g := cellGolden{Key: c.key, Result: sha(resultJSON), Metrics: sha(metrics.Bytes())}
	for i, v := range res.Result.Values {
		g.Values = append(g.Values, fmt.Sprintf("result[%d] %s/%s = %s %s (x=%s, bound %q)", i, v.Metric, v.Scope,
			strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit, strconv.FormatFloat(v.X, 'g', -1, 64), v.Bound))
	}
	dec := json.NewDecoder(&metrics)
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatalf("%s: metrics export: %v", c.key, err)
	}
	g.Values = flatten(g.Values, "metrics", tree)
	return g
}

// flatten appends one "path = value" line per leaf of a decoded JSON
// tree, object keys in sorted order.
func flatten(out []string, path string, v any) []string {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out = flatten(out, path+"."+k, v[k])
		}
	case []any:
		for i, e := range v {
			out = flatten(out, path+"["+strconv.Itoa(i)+"]", e)
		}
	default:
		out = append(out, fmt.Sprintf("%s = %v", path, v))
	}
	return out
}

// firstDiff names the first value that differs between two cells'
// flattened outputs.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("got %s, want %s", got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(got), len(want))
	}
	return "every value matches, yet the digests differ (a value's JSON encoding changed)"
}

// The 34 engine cells (allreduce, clover-strong, clover-scaling) keep
// their results and metrics exports exactly: every digest matches the
// golden recorded before the engine and fabric optimisations it pins,
// the same digests perfbench/expected.json holds. Regenerate with
// -update-engine-golden only for a deliberate model change.
func TestEngineCellsGolden(t *testing.T) {
	cells := expandEngineCells(t)
	got := make([]cellGolden, len(cells))
	for i, c := range cells {
		got[i] = runEngineCell(t, c)
	}
	if *updateEngineGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []cellGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", engineGoldenPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d engine cells, golden has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Key != w.Key:
			t.Errorf("cell %d is %s, golden has %s", i, g.Key, w.Key)
		case g.Result != w.Result || g.Metrics != w.Metrics:
			t.Errorf("%s: outputs differ from the golden: %s", g.Key, firstDiff(g.Values, w.Values))
		}
	}
}

// deal runs every engine cell once, each on a fresh runner with no
// observer attached, as perfbench's engine-sweep workload does with its
// observers off.
func deal(tb testing.TB, cells []engineCell) {
	tb.Helper()
	for _, c := range cells {
		if res := runner.New(1).Run(context.Background(), []runner.Cell{c.cell})[0]; res.Err != nil {
			tb.Fatal(res.Err)
		}
	}
}

// One deal of the 34 engine cells allocates at most 2% more than the
// 44,232 objects measured with go1.24.0. The bound is an upper one, not
// an exact pin, since the runtime's own allocations vary by Go version.
func TestEngineCellsAllocs(t *testing.T) {
	cells := expandEngineCells(t)
	const measured = 44232
	if got := testing.AllocsPerRun(1, func() { deal(t, cells) }); got > measured*1.02 {
		t.Errorf("%.0f allocations per deal of the %d engine cells, want at most %.0f (%d measured, +2%%)",
			got, len(cells), measured*1.02, measured)
	}
}

// BenchmarkEngineSweepCells runs one deal of the engine cells per
// iteration.
func BenchmarkEngineSweepCells(b *testing.B) {
	cells := expandEngineCells(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deal(b, cells)
	}
}
