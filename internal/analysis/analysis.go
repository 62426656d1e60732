// Package analysis is pvclint's engine: a stdlib-only static-analysis
// framework (go/parser + go/types + go/importer, no external modules)
// plus the purpose-built analyzers that machine-check the simulator's
// determinism and simulated-time invariants documented in DESIGN.md.
//
// The rules it enforces are the repo's load-bearing ones: the paper's
// claims are ratio relationships, so every artifact must be bit-for-bit
// deterministic — record simulated time, never wall clock; never let Go
// map iteration order reach an artifact; all randomness through an
// injected seeded *rand.Rand; nil-guard every obs.Recorder call on hot
// paths; no exact float equality in model code.
//
// Deliberate exceptions are annotated in source with
//
//	//pvclint:ignore <analyzer>[,<analyzer>...] <reason>
//
// which suppresses matching diagnostics on the directive's own line or
// on the line immediately below (so it works both as a trailing comment
// and as a comment above the offending statement). The reason is
// mandatory: an exception without a rationale is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: where, which analyzer, what is wrong, and
// (optionally) how to fix it. The JSON shape is the -json output of
// cmd/pvclint.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if d.Fix != "" {
		s += " (fix: " + d.Fix + ")"
	}
	return s
}

// Analyzer is one named invariant check. Run inspects a type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string // short lower-case identifier, used in -disable and ignore directives
	Doc  string // one-line description shown by pvclint -list
	Run  func(*Pass)
}

// Pass hands an analyzer one type-checked package.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path ("pvcsim/internal/mem", or the path a testdata fixture was loaded as)
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	analyzer string
	sink     *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, "", format, args...)
}

// ReportFixf records a finding at pos carrying a suggested fix.
func (p *Pass) ReportFixf(pos token.Pos, fix, format string, args ...any) {
	p.report(pos, fix, format, args...)
}

func (p *Pass) report(pos token.Pos, fix, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.analyzer,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// ignoreDirective is one parsed //pvclint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	analyzers []string
	reason    string
}

var ignoreRE = regexp.MustCompile(`^//\s*pvclint:ignore\s+(\S+)(?:\s+(.*))?$`)

// parseIgnores extracts the ignore directives of a file, reporting
// malformed ones (unknown analyzer name or missing reason) as findings
// of the pseudo-analyzer "directive" so a typo cannot silently disable
// a check.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool, sink *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			// Directives follow the Go convention: no space after //,
			// so prose that merely mentions the directive is inert.
			if !strings.HasPrefix(c.Text, "//pvclint:ignore") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := ignoreRE.FindStringSubmatch(c.Text)
			bad := func(format string, args ...any) {
				*sink = append(*sink, Diagnostic{
					Analyzer: "directive", File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf(format, args...),
				})
			}
			if m == nil {
				bad("malformed pvclint:ignore directive: want //pvclint:ignore <analyzer> <reason>")
				continue
			}
			names := strings.Split(m[1], ",")
			ok := true
			for _, n := range names {
				if !known[n] {
					bad("pvclint:ignore names unknown analyzer %q", n)
					ok = false
				}
			}
			if strings.TrimSpace(m[2]) == "" {
				bad("pvclint:ignore is missing a reason: every exception must say why")
				ok = false
			}
			if !ok {
				continue
			}
			out = append(out, ignoreDirective{
				file: pos.Filename, line: pos.Line,
				analyzers: names, reason: strings.TrimSpace(m[2]),
			})
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive on the same
// line or the line directly above it in the same file.
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, ig := range dirs {
		if ig.file != d.File || (ig.line != d.Line && ig.line != d.Line-1) {
			continue
		}
		for _, name := range ig.analyzers {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// RunPackage runs the given analyzers over one loaded package and
// returns the surviving diagnostics (ignore directives already applied,
// malformed directives reported). The result is sorted by position so
// output order never depends on analyzer or map order.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset: pkg.Fset, Path: pkg.Path, Files: pkg.Files,
			Types: pkg.Types, Info: pkg.Info,
			analyzer: a.Name, sink: &raw,
		}
		a.Run(pass)
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var directives []ignoreDirective
	var out []Diagnostic
	for _, f := range pkg.Files {
		directives = append(directives, parseIgnores(pkg.Fset, f, known, &out)...)
	}
	for _, d := range raw {
		if !suppressed(d, directives) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

// RunModule loads every package of the module rooted at root and runs
// the analyzers over each, returning all findings sorted by position.
func RunModule(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	return runLoaded(l, analyzers)
}

func runLoaded(l *Loader, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i] = RunPackage(pkgs[i], analyzers)
			}
		}()
	}
	for i := range pkgs {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []Diagnostic
	for _, ds := range perPkg {
		out = append(out, ds...)
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		switch {
		case a.File != b.File:
			return a.File < b.File
		case a.Line != b.Line:
			return a.Line < b.Line
		case a.Col != b.Col:
			return a.Col < b.Col
		case a.Analyzer != b.Analyzer:
			return a.Analyzer < b.Analyzer
		default:
			return a.Message < b.Message
		}
	})
}
