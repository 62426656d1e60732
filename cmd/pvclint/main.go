// Command pvclint machine-checks the repo's determinism and
// simulated-time invariants (see DESIGN.md, "Enforced invariants"). It
// type-checks every package in the module with the standard library's
// go/parser + go/types — no external analysis framework — and runs the
// seven purpose-built analyzers from internal/analysis:
//
//	walltime      no time.Now/Since/Sleep in simulation packages
//	maprange      no map iteration order reaching slices or output unsorted
//	seededrand    no global math/rand draws; inject a seeded *rand.Rand
//	floateq       no exact ==/!= on floats in model code
//	recorderguard every obs.Recorder call dominated by a nil check
//	boundtag      constant bound tags drawn from the closed prof taxonomy
//	timeunit      no raw float64 seconds crossing call boundaries in model code
//
// Exit status is 0 when the tree is clean, 1 when any analyzer reports
// a finding, 2 on usage or load errors. Deliberate exceptions are
// annotated in source:
//
//	//pvclint:ignore <analyzer>[,<analyzer>...] <reason>
//
// -sarif emits the findings as a SARIF 2.1.0 log (for code-scanning
// upload) instead of file:line text; it always exits 0/1 by findings
// like the other modes and cannot be combined with -json.
//
// Usage:
//
//	pvclint [-C dir] [-json|-sarif] [-disable a,b] [-list]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pvcsim/internal/analysis"
	"pvcsim/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pvclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module root to analyze (directory containing go.mod)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	asSARIF := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of file:line text")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	var logf telemetry.LogFlags
	logf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(stderr, "pvclint: -json and -sarif are mutually exclusive")
		return 2
	}
	if _, err := logf.Setup(stderr); err != nil {
		fmt.Fprintln(stderr, "pvclint:", err)
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	disabled := map[string]bool{}
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if analysis.ByName(name) == nil {
			fmt.Fprintf(stderr, "pvclint: -disable: unknown analyzer %q (see -list)\n", name)
			return 2
		}
		disabled[name] = true
	}
	var enabled []*analysis.Analyzer
	for _, a := range analysis.All() {
		if !disabled[a.Name] {
			enabled = append(enabled, a)
		}
	}

	findings, err := analysis.RunModule(*dir, enabled)
	if err != nil {
		fmt.Fprintf(stderr, "pvclint: %v\n", err)
		return 2
	}
	switch {
	case *asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Diagnostic{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "pvclint: %v\n", err)
			return 2
		}
	case *asSARIF:
		if err := writeSARIF(stdout, *dir, findings); err != nil {
			fmt.Fprintf(stderr, "pvclint: %v\n", err)
			return 2
		}
	default:
		for _, d := range findings {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(findings) > 0 {
		if !*asJSON && !*asSARIF {
			fmt.Fprintf(stderr, "pvclint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
