package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := NewStudy()
	if err := s.WriteAllArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"table1.txt",
		"table2_aurora.txt", "table2_aurora.csv",
		"table2_dawn.txt", "table2_dawn.csv",
		"table3.txt", "table3.csv",
		"table4.txt", "table5.txt",
		"table6.txt", "table6.csv",
		"figure1.csv", "figure1.svg",
		"figure2.txt", "figure2.svg",
		"figure3_aurora.txt", "figure3_dawn.txt", "figure3_aurora.svg",
		"figure4_aurora.txt", "figure4_dawn.txt", "figure4_dawn.svg",
		"EXPERIMENTS.md",
	}
	for _, name := range want {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// Spot-check contents.
	b, err := os.ReadFile(filepath.Join(dir, "table2_aurora.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "DGEMM") {
		t.Error("table2 missing DGEMM row")
	}
	svg, err := os.ReadFile(filepath.Join(dir, "figure1.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Error("figure1.svg is not SVG")
	}
	exp, err := os.ReadFile(filepath.Join(dir, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(exp), "Worst relative error") {
		t.Error("EXPERIMENTS.md incomplete")
	}
}

func TestWriteAllArtifactsBadDir(t *testing.T) {
	s := NewStudy()
	// A path under an existing *file* cannot be created.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAllArtifacts(filepath.Join(f, "sub")); err == nil {
		t.Error("uncreatable dir should fail")
	}
}

// TestWriteAllArtifactsPartialFailureCleansUp forces a mid-sequence write
// failure (a directory squatting on an artifact filename makes os.Create
// fail) and checks the files written before the failure are removed.
func TestWriteAllArtifactsPartialFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	// table3.txt is written after table1.txt and the table2 files.
	if err := os.Mkdir(filepath.Join(dir, "table3.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := NewStudy().WriteAllArtifacts(dir); err == nil {
		t.Fatal("expected a write failure")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "table3.txt" {
			t.Errorf("partial artifact %s left behind after failure", e.Name())
		}
	}
}

// TestWriteAllArtifactsCleanupKeepsForeignFiles checks cleanup removes
// only the files this call created, not pre-existing files in the
// directory.
func TestWriteAllArtifactsCleanupKeepsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "NOTES.txt")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "EXPERIMENTS.md"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := NewStudy().WriteAllArtifacts(dir); err == nil {
		t.Fatal("expected a write failure")
	}
	b, err := os.ReadFile(foreign)
	if err != nil || string(b) != "keep me" {
		t.Fatalf("foreign file disturbed: %q, %v", b, err)
	}
}

// failAfter accepts n bytes and fails every write past them, as a full
// disk does.
type failAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestExperimentsMarkdownReportsWriteErrors checks that a write that
// stops part way through the fidelity report is the error returned, so
// WriteAllArtifacts cannot report success over a truncated EXPERIMENTS.md.
func TestExperimentsMarkdownReportsWriteErrors(t *testing.T) {
	s := NewStudy()
	var full bytes.Buffer
	if err := s.WriteExperimentsMarkdown(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 100, full.Len() / 2, full.Len() - 1} {
		if err := s.WriteExperimentsMarkdown(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
			t.Errorf("write failing after %d of %d bytes: err = %v, want %v", n, full.Len(), err, errDiskFull)
		}
	}
	if err := s.WriteExperimentsMarkdown(&failAfter{n: full.Len()}); err != nil {
		t.Errorf("write with room for all %d bytes: %v", full.Len(), err)
	}
}
