package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pvcsim/internal/analysis"
)

// plantModule writes a throwaway module whose gpusim package (a
// simulation path under the walltime contract) reads the wall clock.
func plantModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := filepath.Join(dir, "gpusim")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package gpusim\n\nimport \"time\"\n\nvar T = time.Now()\n"
	if err := os.WriteFile(filepath.Join(pkg, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitNonzeroOnViolation covers the acceptance criterion that
// pvclint exits nonzero the moment a violation is introduced, and that
// -json carries the structured finding.
func TestExitNonzeroOnViolation(t *testing.T) {
	dir := plantModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var findings []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a Diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 || findings[0].Analyzer != "walltime" {
		t.Fatalf("findings = %+v, want one walltime finding", findings)
	}
}

// TestDisableSkipsAnalyzer: with walltime off the planted module is
// clean, and an unknown name is a usage error, not a silent no-op.
func TestDisableSkipsAnalyzer(t *testing.T) {
	dir := plantModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-disable", "walltime"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-C", dir, "-disable", "walltimee"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -disable name: exit = %d, want 2", code)
	}
}

// TestSARIFOutput checks the code-scanning export: the planted
// violation surfaces as a SARIF result with a module-relative URI, the
// rule table names every analyzer, and the exit code still signals the
// finding.
func TestSARIFOutput(t *testing.T) {
	dir := plantModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-sarif"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version = %q, runs = %d; want 2.1.0 with one run", log.Version, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "pvclint" {
		t.Errorf("driver name = %q", run0.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run0.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range analysis.All() {
		if !ruleIDs[a.Name] {
			t.Errorf("rule table is missing analyzer %q", a.Name)
		}
	}
	if !ruleIDs["directive"] {
		t.Error("rule table is missing the directive pseudo-analyzer")
	}
	if len(run0.Results) != 1 {
		t.Fatalf("results = %d, want 1:\n%s", len(run0.Results), stdout.String())
	}
	res := run0.Results[0]
	if res.RuleID != "walltime" || res.Level != "error" {
		t.Errorf("result = %s/%s, want walltime/error", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "gpusim/bad.go" {
		t.Errorf("uri = %q, want module-relative gpusim/bad.go", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 5 {
		t.Errorf("startLine = %d, want 5", loc.Region.StartLine)
	}
}

// TestSARIFCleanTree: an empty result set is still a valid SARIF log
// (code-scanning uploads run on green builds too), and -json/-sarif
// together is a usage error rather than ambiguous output.
func TestSARIFCleanTree(t *testing.T) {
	dir := plantModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-sarif", "-disable", "walltime"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	var log struct {
		Runs []struct {
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("clean -sarif output is not valid JSON: %v", err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean run must have one run with an empty (non-null) results array:\n%s", stdout.String())
	}
	if code := run([]string{"-C", dir, "-json", "-sarif"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json -sarif: exit = %d, want 2", code)
	}
}

// TestListNamesEveryAnalyzer keeps -list in sync with the registry.
func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, a := range analysis.All() {
		if !bytes.Contains(stdout.Bytes(), []byte(a.Name)) {
			t.Errorf("-list output is missing analyzer %q:\n%s", a.Name, stdout.String())
		}
	}
}

// TestLogFlagsRejected: pvclint logs nothing, so it refuses
// -log-format/-log-level.
func TestLogFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-log-format", "json", "-list"},
		{"-log-level", "debug", "-list"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("pvclint %q: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
