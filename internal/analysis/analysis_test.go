package analysis

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pvcsim/internal/hw"
	"pvcsim/internal/prof"
)

const moduleRoot = "../.."

// One loader (and thus one compiled view of the standard library) is
// shared by every test in the package; tests run sequentially, and the
// loader caches by import path, so fixtures and the real module
// coexist.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(moduleRoot) })
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

// want is one expectation parsed from a `// want `+"`re`"+` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantSegRE = regexp.MustCompile("`([^`]+)`")

// parseWants extracts the want comments of a loaded package.
func parseWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				segs := wantSegRE.FindAllStringSubmatch(c.Text, -1)
				if len(segs) == 0 {
					t.Fatalf("%s:%d: want comment without a backtick-quoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range segs {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// checkExpectations matches findings against wants one-to-one.
func checkExpectations(t *testing.T, label string, diags []Diagnostic, wants []want) {
	t.Helper()
	used := make([]bool, len(wants))
	for _, d := range diags {
		text := d.Analyzer + ": " + d.Message
		matched := false
		for i, w := range wants {
			if !used[i] && w.file == d.File && w.line == d.Line && w.re.MatchString(text) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s", label, d)
		}
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("%s: %s:%d: expected a finding matching %q, got none", label, w.file, w.line, w.re)
		}
	}
}

// TestAnalyzersOnFixtures is the golden harness: each testdata package
// is loaded under a chosen import path (so path-sensitive analyzers see
// the classification the fixture is about) and every analyzer runs over
// it; findings must match the `// want` comments exactly.
func TestAnalyzersOnFixtures(t *testing.T) {
	l := sharedLoader(t)
	cases := []struct {
		dir     string
		asPath  string
		noWants bool // load ignoring want comments and expect zero findings
	}{
		{dir: "walltime", asPath: "pvcsim/internal/gpusim/fixture"},
		// The same sources under allowlisted paths are clean: the
		// runner and the CLIs may read the wall clock.
		{dir: "walltime", asPath: "pvcsim/internal/runner/fixture", noWants: true},
		{dir: "walltime", asPath: "pvcsim/cmd/fixture", noWants: true},
		// The telemetry layer and the pvcd daemon are wall-clock side
		// channels by design: latency histograms and run logs measure
		// the host, never the simulation.
		{dir: "walltime", asPath: "pvcsim/internal/telemetry/fixture", noWants: true},
		{dir: "walltime", asPath: "pvcsim/cmd/pvcd/fixture", noWants: true},
		// The allowlist must win over a sim segment on the same path —
		// this case fails if "telemetry" is dropped from
		// wallClockAllowed, keeping the allowlist honest.
		{dir: "walltime", asPath: "pvcsim/internal/telemetry/sim/fixture", noWants: true},
		// The wall-clock self-profiling layer owns the injected clock
		// that internal/sim's timing-free probe callbacks are measured
		// against: it is explicitly classified, not blanket-ignored,
		// and the allowlist again wins over a sim segment.
		{dir: "walltime", asPath: "pvcsim/internal/wallprof/fixture", noWants: true},
		{dir: "walltime", asPath: "pvcsim/internal/wallprof/sim/fixture", noWants: true},
		// The request-correlation layer and the run-history journal are
		// wall-clock side channels like telemetry/wallprof: spans and
		// journal timestamps measure the service, never the simulation.
		// The sim-segment variants keep the allowlist entries honest.
		{dir: "walltime", asPath: "pvcsim/internal/reqtrace/fixture", noWants: true},
		{dir: "walltime", asPath: "pvcsim/internal/reqtrace/sim/fixture", noWants: true},
		{dir: "walltime", asPath: "pvcsim/internal/history/fixture", noWants: true},
		{dir: "walltime", asPath: "pvcsim/internal/history/sim/fixture", noWants: true},
		{dir: "maprange", asPath: "pvcsim/internal/report/fixture"},
		// The sweep engine is simulation territory: expansion must be
		// wall-clock-free and must never let map order pick cell order.
		{dir: "sweepdet", asPath: "pvcsim/internal/sweep/fixture"},
		{dir: "seededrand", asPath: "pvcsim/internal/topology/fixture"},
		{dir: "floateq", asPath: "pvcsim/internal/perfmodel/fixture"},
		// floateq is scoped to model code: the identical sources under
		// a non-simulation path are clean.
		{dir: "floateq", asPath: "pvcsim/internal/report/floatfixture", noWants: true},
		{dir: "recorderguard", asPath: "pvcsim/internal/mem/fixture"},
		{dir: "directive", asPath: "pvcsim/internal/power/fixture"},
		// The closed bound taxonomy and seconds-as-float64.
		{dir: "boundtag", asPath: "pvcsim/internal/fabric/boundfixture"},
		// boundtag is scoped to simulation and prof code: the identical
		// sources under a reporting path are clean.
		{dir: "boundtag", asPath: "pvcsim/internal/report/boundfixture", noWants: true},
		{dir: "timeunit", asPath: "pvcsim/internal/perfmodel/timefixture"},
		// timeunit only polices model packages; reporting code may carry
		// raw float64 seconds (chrome traces, CSV columns).
		{dir: "timeunit", asPath: "pvcsim/internal/report/timefixture", noWants: true},
	}
	for _, tc := range cases {
		label := tc.dir + " as " + tc.asPath
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", tc.dir), tc.asPath)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		diags := runPackage(pkg, All(), nil)
		var wants []want
		if !tc.noWants {
			wants = parseWants(t, pkg)
			if len(wants) == 0 && tc.dir != "directive" {
				t.Fatalf("%s: fixture has no want comments", label)
			}
		}
		checkExpectations(t, label, diags, wants)
	}
}

// TestMalformedDirectives checks that a broken //pvclint:ignore cannot
// silently disable a check: it is reported itself AND the violation it
// meant to cover still surfaces. Expectations are positional (sorted by
// line) because a want comment cannot share a line with the directive
// under test.
func TestMalformedDirectives(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "directivebad"), "pvcsim/internal/fabric/fixture")
	if err != nil {
		t.Fatal(err)
	}
	diags := runPackage(pkg, All(), nil)
	expected := []string{
		`directive: .*unknown analyzer "nosuchanalyzer"`,
		`walltime: time\.Now reads the wall clock`,
		`directive: .*missing a reason`,
		`walltime: time\.Now reads the wall clock`,
	}
	if len(diags) != len(expected) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(expected), renderAll(diags))
	}
	for i, pat := range expected {
		text := diags[i].Analyzer + ": " + diags[i].Message
		if !regexp.MustCompile(pat).MatchString(text) {
			t.Errorf("finding %d = %q, want match for %q", i, text, pat)
		}
	}
}

// TestModuleIsClean asserts the real tree has zero findings: the
// invariants in DESIGN.md hold everywhere, with every deliberate
// exception annotated. This is the same load path `pvclint` and
// `make lint` use, so a regression fails both this test and the build.
func TestModuleIsClean(t *testing.T) {
	diags, err := runLoaded(sharedLoader(t), All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		t.Errorf("pvclint findings on a tree that must be clean:\n%s", renderAll(diags))
	}
}

// TestTestOnlyModule runs the whole-program testonly check over a
// fixture module: a function reached only from a _test.go file (or
// only from itself) is flagged; one reached from cmd/, from the nested
// bench module, or through an interface method is not; a file-scope
// testonly directive keeps its file, and one naming walltime is a
// directive finding that suppresses nothing.
func TestTestOnlyModule(t *testing.T) {
	root := filepath.Join("testdata", "testonly")
	diags, err := RunModule(root, All())
	if err != nil {
		t.Fatal(err)
	}
	expected := []struct{ file, analyzer, msg string }{
		{"internal/badscope/bad.go", "directive", `file-scope pvclint:ignore names "walltime"`},
		{"internal/lib/lib.go", "testonly", `^OnlyTests is referenced by no non-test code$`},
		{"internal/lib/lib.go", "testonly", `^Countdown is referenced by no non-test code$`},
	}
	if len(diags) != len(expected) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(expected), renderAll(diags))
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range expected {
		d := diags[i]
		rel, _ := filepath.Rel(abs, d.File)
		if filepath.ToSlash(rel) != want.file || d.Analyzer != want.analyzer || !regexp.MustCompile(want.msg).MatchString(d.Message) {
			t.Errorf("finding %d = %s, want %s: %s in %s", i, d, want.analyzer, want.msg, want.file)
		}
	}
}

// TestPlantedWalltimeInSim is the sensitivity check for the wallprof
// allowlisting: granting the self-profiling layer the wall clock must
// not have loosened the ban where it matters. A time.Now planted in
// internal/sim — the package wallprof instruments through timing-free
// callbacks — must still be caught.
func TestPlantedWalltimeInSim(t *testing.T) {
	l, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	const plant = `package sim

import "time"

func plantedWallClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}
`
	l.Extra["pvcsim/internal/sim"] = []ExtraFile{{Name: "zz_planted.go", Src: plant}}
	pkg, err := l.LoadDir(filepath.Join(l.Root, "internal", "sim"), "pvcsim/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := runPackage(pkg, []*Analyzer{Walltime}, nil)
	var hits []Diagnostic
	for _, d := range diags {
		if strings.HasSuffix(d.File, "zz_planted.go") {
			hits = append(hits, d)
		}
	}
	if len(hits) != 2 {
		t.Fatalf("planted time.Now/time.Since in sim: got %d walltime findings, want 2:\n%s",
			len(hits), renderAll(diags))
	}
	if len(diags) != len(hits) {
		t.Errorf("unplanted sim code has walltime findings (the wallprof probe leaked a clock?):\n%s",
			renderAll(diags))
	}
}

// TestPlantedWalltimeInPerfmodel verifies the acceptance scenario for
// `make check`: a time.Now planted in internal/perfmodel must be
// caught. The plant is injected as a synthetic file at load time so the
// working tree is never touched.
func TestPlantedWalltimeInPerfmodel(t *testing.T) {
	l, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	const plant = `package perfmodel

import "time"

func plantedWallClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}
`
	l.Extra["pvcsim/internal/perfmodel"] = []ExtraFile{{Name: "zz_planted.go", Src: plant}}
	pkg, err := l.LoadDir(filepath.Join(l.Root, "internal", "perfmodel"), "pvcsim/internal/perfmodel")
	if err != nil {
		t.Fatal(err)
	}
	diags := runPackage(pkg, []*Analyzer{Walltime}, nil)
	var hits []Diagnostic
	for _, d := range diags {
		if strings.HasSuffix(d.File, "zz_planted.go") {
			hits = append(hits, d)
		}
	}
	if len(hits) != 2 {
		t.Fatalf("planted time.Now/time.Since: got %d walltime findings, want 2:\n%s", len(hits), renderAll(diags))
	}
	if len(diags) != len(hits) {
		t.Errorf("unplanted perfmodel code has findings:\n%s", renderAll(diags))
	}
}

func renderAll(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// TestExceptionCountIsPinned asserts the number of //pvclint:ignore
// directives in the shipped sources. Every exception is a hole in an
// invariant, so adding one must be a deliberate, reviewed act: update
// the count here and say why in the directive's reason text. Test
// files and fixtures are excluded — they exist to exercise the
// directives. 21 of them are file-scope testonly exceptions, one per
// file of DESIGN-named kernels and extensions that only tests run.
func TestExceptionCountIsPinned(t *testing.T) {
	const wantCount = 26
	var got int
	var where []string
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			if strings.HasPrefix(strings.TrimSpace(sc.Text()), "//pvclint:ignore") {
				got++
				rel, _ := filepath.Rel(moduleRoot, path)
				where = append(where, rel+":"+itoa(line))
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCount {
		t.Errorf("found %d //pvclint:ignore directives, want %d; if the new exception is deliberate, "+
			"document it and bump wantCount:\n  %s", got, wantCount, strings.Join(where, "\n  "))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestBoundTaxonomyAgreesWithProf keeps the boundtag analyzer's closed
// set in lockstep with the taxonomy it enforces: every fixed tag the
// analyzer accepts must be known to prof, every fixed prof constant
// must be in the analyzer's set, and the parameterized families
// (compute.<precision>, cache.<level>) must round-trip through the
// prof constructors.
func TestBoundTaxonomyAgreesWithProf(t *testing.T) {
	fixed := []string{
		prof.BoundHBM, prof.BoundPCIe,
		prof.BoundFabricLocal, prof.BoundFabricRemote,
		prof.BoundFabricXPlane, prof.BoundFabricNode,
		prof.BoundPower, prof.BoundLaunch,
	}
	if len(fixedBounds) != len(fixed) {
		t.Errorf("boundtag knows %d fixed tags, prof defines %d", len(fixedBounds), len(fixed))
	}
	for _, tag := range fixed {
		if !fixedBounds[tag] {
			t.Errorf("prof constant %q is missing from boundtag's fixed set", tag)
		}
	}
	for _, p := range []hw.Precision{hw.FP64, hw.FP32, hw.FP16, hw.BF16, hw.TF32, hw.I8} {
		if tag := prof.BoundCompute(p); !knownBoundTag(tag) {
			t.Errorf("prof.BoundCompute(%v) = %q rejected", p, tag)
		}
	}
	for _, level := range []string{"L1", "L2", "RAMBO"} {
		if tag := prof.BoundCache(level); !knownBoundTag(tag) {
			t.Errorf("prof.BoundCache(%q) = %q rejected", level, tag)
		}
	}
	if knownBoundTag("compute.") || knownBoundTag("cache.") {
		t.Error("a bare family prefix with no suffix must not pass")
	}
	if !knownBoundTag("") {
		t.Error("the empty tag (an unattributed flow) must stay legal")
	}
}
