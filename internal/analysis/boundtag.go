package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// fixedBounds is the closed set of non-parameterized bound tags from
// the prof taxonomy (DESIGN.md §9). internal/analysis keeps its own
// copy so pvclint stays import-free of the packages it checks; a test
// in analysis_test.go asserts it agrees with prof's constants.
var fixedBounds = map[string]bool{
	"hbm":                  true,
	"pcie":                 true,
	"fabric.local":         true,
	"fabric.remote":        true,
	"fabric.remote-xplane": true,
	"fabric.remote-node":   true,
	"power.throttle":       true,
	"launch":               true,
}

// boundPrefixes are the two parameterized bound families.
var boundPrefixes = []string{"compute.", "cache."}

// knownBoundTag reports whether s is a member of the closed bound
// taxonomy. The empty string is legal: untagged spans bill to no bound
// (blocking-memcpy flows stay untagged to prevent double-billing).
func knownBoundTag(s string) bool {
	if s == "" || fixedBounds[s] {
		return true
	}
	for _, pre := range boundPrefixes {
		if strings.HasPrefix(s, pre) && len(s) > len(pre) {
			return true
		}
	}
	return false
}

// BoundTag enforces that the prof bound taxonomy stays a closed set.
// Three shapes are checked in simulation and prof code:
//
//   - a constant string passed for a parameter literally named "bound"
//     (fabric.StartBound, gpusim's record helper)
//     must be a known tag — a misspelled tag would silently create a
//     new residency bucket and break share-sums-to-1;
//   - a constant string assigned to a struct field named Bound,
//     likewise;
//   - a switch over bound strings (two or more fixed tags among its
//     cases) must either carry a default or cover all eight fixed
//     tags — a non-exhaustive switch silently drops new bounds.
var BoundTag = &Analyzer{
	Name: "boundtag",
	Doc:  "flag unknown bound tags and non-exhaustive switches over the closed bound taxonomy",
	Run: func(p *Pass) {
		if !isSimulationPackage(p.Path) && !pathHasSegment(relPath(p.Path), "prof") {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkBoundArgs(p, n)
				case *ast.CompositeLit:
					checkBoundFields(p, n)
				case *ast.SwitchStmt:
					checkBoundSwitch(p, n)
				}
				return true
			})
		}
	},
}

// constString returns the compile-time string value of e, if any.
func constString(p *Pass, e ast.Expr) (string, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkBoundArgs validates constant arguments bound to parameters named
// "bound" in the callee's signature (works through interfaces and
// function values — only the signature matters).
func checkBoundArgs(p *Pass, call *ast.CallExpr) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		par := sig.Params().At(i)
		if par.Name() != "bound" {
			continue
		}
		if b, ok := par.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
			continue
		}
		if s, ok := constString(p, call.Args[i]); ok && !knownBoundTag(s) {
			p.ReportFixf(call.Args[i].Pos(),
				"use a prof.Bound* constant or prof.BoundCompute/BoundCache",
				"unknown bound tag %q: the bound taxonomy is a closed set and a typo creates a phantom residency bucket", s)
		}
	}
}

// checkBoundFields validates constant strings assigned to struct fields
// named Bound in composite literals.
func checkBoundFields(p *Pass, lit *ast.CompositeLit) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Bound" {
			continue
		}
		if s, ok := constString(p, kv.Value); ok && !knownBoundTag(s) {
			p.ReportFixf(kv.Value.Pos(),
				"use a prof.Bound* constant or prof.BoundCompute/BoundCache",
				"unknown bound tag %q assigned to a Bound field", s)
		}
	}
}

// checkBoundSwitch flags non-exhaustive switches over the fixed bound
// tags. A switch qualifies when two or more of its constant-string
// cases are fixed bound tags; it is fine when it has a default clause
// or covers all eight.
func checkBoundSwitch(p *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	covered := map[string]bool{}
	hasDefault := false
	var unknown []ast.Expr
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			s, ok := constString(p, e)
			if !ok {
				continue
			}
			if fixedBounds[s] {
				covered[s] = true
			} else if !knownBoundTag(s) {
				unknown = append(unknown, e)
			}
		}
	}
	if len(covered) < 2 {
		return // not a switch over bound tags
	}
	for _, e := range unknown {
		s, _ := constString(p, e)
		p.Reportf(e.Pos(), "unknown bound tag %q in a switch over the bound taxonomy", s)
	}
	if hasDefault || len(covered) == len(fixedBounds) {
		return
	}
	var missing []string
	for s := range fixedBounds {
		if !covered[s] {
			missing = append(missing, s)
		}
	}
	sort.Strings(missing)
	p.ReportFixf(sw.Pos(),
		"add the missing cases or a default clause",
		"switch over bound tags covers %d of %d fixed bounds and has no default; missing: %s",
		len(covered), len(fixedBounds), strings.Join(missing, ", "))
}
