package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvcsim/internal/microbench"
	"pvcsim/internal/topology"
	"pvcsim/internal/units"
)

// goldens pins the stdout and exit code of every documented invocation.
// The files hold what lats, miniapps, apps and nodeinfo printed as
// separate binaries, except apps.golden: that is the old apps output
// without its physics self-check banner and its own Table VI block, whose
// rows `miniapps -table 6` prints.
var goldens = []struct {
	file string
	args []string
	code int
}{
	{"root", nil, 0},
	{"root-skip-selfcheck", []string{"-skip-selfcheck"}, 0},
	{"root-table-1", []string{"-table", "1"}, 0},
	{"root-table-2", []string{"-table", "2"}, 0},
	{"root-table-3", []string{"-table", "3"}, 0},
	{"root-table-4", []string{"-table", "4"}, 0},
	{"root-table-2-aurora", []string{"-table", "2", "-system", "aurora"}, 0},
	{"root-csv", []string{"-csv"}, 0},
	{"root-experiments", []string{"-experiments"}, 0},
	{"root-energy", []string{"-energy"}, 0},
	{"root-frontier", []string{"-frontier"}, 0},
	{"root-p2p-curves", []string{"-p2p-curves"}, 0},
	{"root-list", []string{"-list"}, 0},
	{"root-list-filter", []string{"-list", "-filter", "clover*"}, 0},
	{"root-list-nomatch", []string{"-list", "-filter", "nomatch*"}, 3},
	{"lats", []string{"lats"}, 0},
	{"lats-csv", []string{"lats", "-csv"}, 0},
	{"lats-svg", []string{"lats", "-svg"}, 0},
	{"lats-range", []string{"lats", "-lo", "1 MiB", "-hi", "1 GB"}, 0},
	{"lats-simulate", []string{"lats", "-simulate", "1 MiB"}, 0},
	{"miniapps", []string{"miniapps"}, 0},
	{"miniapps-table-5", []string{"miniapps", "-table", "5"}, 0},
	{"miniapps-table-6", []string{"miniapps", "-table", "6"}, 0},
	{"miniapps-figure-2", []string{"miniapps", "-figure", "2"}, 0},
	{"miniapps-figure-3", []string{"miniapps", "-figure", "3"}, 0},
	{"miniapps-figure-4", []string{"miniapps", "-figure", "4"}, 0},
	{"miniapps-figure-2-svg", []string{"miniapps", "-figure", "2", "-svg"}, 0},
	{"miniapps-sweep", []string{"miniapps", "-sweep"}, 0},
	{"apps", []string{"apps"}, 0},
	{"apps-keff", []string{"apps", "-keff"}, 0},
	{"nodeinfo", []string{"nodeinfo"}, 0},
	{"nodeinfo-bindings", []string{"nodeinfo", "-bindings"}, 0},
	{"nodeinfo-frontier", []string{"nodeinfo", "-system", "frontier"}, 0},
	{"nodeinfo-config", []string{"nodeinfo", "-config", filepath.Join("testdata", "node.json")}, 0},
}

func TestGoldenStdout(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(g.args, &stdout, &stderr); code != g.code {
				t.Fatalf("pvcbench %q exit %d, want %d; stderr:\n%s", g.args, code, g.code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("pvcbench %q stdout differs from testdata/%s.golden:\n%s", g.args, g.file, stdout.String())
			}
		})
	}
}

// TestMiniappsMetricsGolden pins the -metrics export of the mini-app
// study byte for byte.
func TestMiniappsMetricsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "miniapps-metrics.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"miniapps", "-metrics", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("miniapps -metrics export differs from testdata/miniapps-metrics.golden.json")
	}
}

// TestUsageErrors: invocations that used to print nothing (or ignore
// their argument) and exit 0 now exit 2 with one pvcbench: line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "9"},
		{"-table", "-1"},
		{"miniapps", "-table", "7"},
		{"miniapps", "-table", "4"},
		{"miniapps", "-figure", "9"},
		{"miniapps", "-figure", "1"},
		{"-skip-selfcheck", "lats"},
		{"lats", "extra"},
		{"nodeinfo", "-bindings", "aurora"},
		{"bogus"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		msg := stderr.String()
		if code != 2 || !strings.HasPrefix(msg, "pvcbench: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("pvcbench %q: exit %d, stderr %q; want exit 2 and one pvcbench: line", args, code, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("pvcbench %q wrote stdout %q", args, stdout.String())
		}
	}
}

// TestNoStudyFlagsOnApps: apps and nodeinfo run no registry cell, so
// they refuse -jobs and the observability flags instead of writing an
// export with no cells.
func TestNoStudyFlagsOnApps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	for _, args := range [][]string{
		{"apps", "-metrics", path},
		{"apps", "-jobs", "4"},
		{"nodeinfo", "-trace", path},
		{"nodeinfo", "-jobs", "4"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("pvcbench %q: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("pvcbench %q wrote %s", args, path)
		}
	}
}

// TestLatsRangeAppliesToCSVAndSVG: -lo/-hi set the ladder of every
// Figure 1 rendering, not only the text table.
func TestLatsRangeAppliesToCSVAndSVG(t *testing.T) {
	lo, hi := 1*units.MiB, 1*units.GB
	points := len(microbench.NewSuite(topology.NewNode(topology.Aurora)).Lats(lo, hi))
	var csv, stderr bytes.Buffer
	if code := run([]string{"lats", "-csv", "-lo", "1 MiB", "-hi", "1 GB"}, &csv, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	if rows := strings.Count(csv.String(), "\n") - 1; rows != points {
		t.Errorf("lats -csv -lo 1MiB -hi 1GB: %d rows, want the custom ladder's %d", rows, points)
	}
	var svg bytes.Buffer
	if code := run([]string{"lats", "-svg", "-lo", "1 MiB", "-hi", "1 GB"}, &svg, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	def, err := os.ReadFile(filepath.Join("testdata", "lats-svg.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(svg.Bytes(), def) {
		t.Error("lats -svg with a custom range renders the default ladder")
	}
}

// TestHelpListsEachSubcommandOnce: -h exits 0 and names every
// subcommand on exactly one usage line.
func TestHelpListsEachSubcommandOnce(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, sc := range subcommands {
		if n := strings.Count(stderr.String(), "\n  "+sc.name+" "); n != 1 {
			t.Errorf("-h lists %s %d times:\n%s", sc.name, n, stderr.String())
		}
	}
}

// TestLogFlagsRejected: only the pvcd daemon logs, so the study
// commands refuse -log-format/-log-level instead of accepting values
// that change nothing.
func TestLogFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-log-format", "json", "-skip-selfcheck", "-table", "1"},
		{"lats", "-log-format", "json"},
		{"miniapps", "-log-level", "debug", "-table", "5"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("pvcbench %q: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
