package pvcsim

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pvcsim/internal/core"
	"pvcsim/internal/obs"
	"pvcsim/internal/prof"
)

// expectedPath holds the paper artifacts' digests that perfbench's
// paper-artifacts workload checks every op against; the test reads it in
// place so the pin lives in one file.
const expectedPath = "perfbench/expected.json"

// The paper artifacts keep their bytes: the 24 files of `pvcbench
// -artifacts` plus the metrics, trace and profile exports written with an
// observer attached, as perfbench's paper op writes them, each match its
// digest in perfbench/expected.json. The geometric mean of the paper
// errors matches exactly, and the root EXPERIMENTS.md is the generated one.
func TestPaperArtifactsPinned(t *testing.T) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Artifacts       map[string]string `json:"artifacts"`
		PaperErrGeomean float64           `json:"paper_err_geomean"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", expectedPath, err)
	}

	dir := t.TempDir()
	st := core.NewStudy()
	col := obs.NewCollector()
	st.Runner().Observe(col)
	if err := st.Prefetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteAllArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	for name, render := range map[string]func(io.Writer) error{
		"metrics.json": rep.WriteMetrics,
		"trace.json":   rep.WriteChromeTrace,
		"profile.json": prof.Build(rep).WriteJSON,
	} {
		var b bytes.Buffer
		if err := render(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, de := range ents {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[de.Name()] = sha(b)
	}
	names := make([]string, 0, len(want.Artifacts))
	for name := range want.Artifacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: not written", name)
		case g != want.Artifacts[name]:
			t.Errorf("%s: digest %s, %s has %s", name, g, expectedPath, want.Artifacts[name])
		}
	}
	for name := range got {
		if _, ok := want.Artifacts[name]; !ok {
			t.Errorf("%s: written but has no digest in %s", name, expectedPath)
		}
	}

	exps, err := st.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	logSum, n := 0.0, 0
	for _, x := range exps {
		if re := x.RelErr(); re > 0 {
			logSum += math.Log(re)
			n++
		}
	}
	if g := math.Exp(logSum / float64(n)); g != want.PaperErrGeomean {
		t.Errorf("paper_err_geomean %v, %s has %v", g, expectedPath, want.PaperErrGeomean)
	}

	root, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := os.ReadFile(filepath.Join(dir, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(root, gen) {
		t.Error("EXPERIMENTS.md differs from the one `pvcbench -artifacts` writes; regenerate it")
	}
}
