package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// inspectStack walks root like ast.Inspect but also hands fn the stack
// of ancestor nodes (outermost first, excluding n itself). Returning
// false prunes the subtree.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// pkgFunc resolves a call or identifier use to a package-level function
// and returns its package path and name ("", "" when it is anything
// else: a method, a local, a type conversion...).
func pkgFunc(info *types.Info, e ast.Expr) (pkgPath, name string) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// isFloat reports whether t's core type is a floating-point kind,
// looking through defined types such as units.Seconds.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprKey renders an expression to a canonical string so two syntactic
// mentions of the same variable or field chain (m.obs, h.Obs, r) can be
// compared. It covers the identifier/selector/star shapes guards use;
// anything fancier compares unequal, which only makes analyzers more
// conservative.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return "*" + base
	default:
		return ""
	}
}

// relPath strips the module prefix off an import path: "pvcsim/internal/mem"
// becomes "internal/mem". Fixture paths without a known module prefix
// are returned unchanged.
func relPath(path string) string {
	if i := strings.Index(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pathHasSegment reports whether any slash-separated segment of the
// package path equals one of names.
func pathHasSegment(path string, names ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// simulationSegments are the packages whose code runs inside the
// simulated machine: everything here must be deterministic and must
// live entirely on simulated time.
var simulationSegments = []string{
	"gpusim", "perfmodel", "mem", "fabric", "power",
	"kernels", "miniapps", "apps", "microbench", "sched", "sim",
	"mpirt", "sweep",
}

// wallClockAllowed are the segments explicitly allowed to read the wall
// clock: the runner reports human-facing elapsed times, CLIs may time
// themselves, the telemetry layer (and the pvcd daemon over it) is a
// wall-clock side channel by design — its latency histograms and run
// logs measure the host, never the simulation — and wallprof IS the
// wall clock: the self-profiling layer owns the injected clock that
// internal/sim's timing-free WallProbe callbacks are measured against.
// The ban on sim packages stands precisely because wallprof exists: sim
// emits callbacks, wallprof reads the clock. reqtrace (request
// correlation spans) and history (run-journal timestamps) are the same
// kind of side channel: they measure the service, never the
// simulation. cmd wins over a sim segment, so a command directory named
// after a simulation package (cmd/sim, say) could read the clock.
var wallClockAllowed = []string{"cmd", "runner", "telemetry", "wallprof", "reqtrace", "history"}

// isSimulationPackage classifies an import path under the walltime /
// floateq contract.
func isSimulationPackage(path string) bool {
	rel := relPath(path)
	if pathHasSegment(rel, wallClockAllowed...) {
		return false
	}
	return pathHasSegment(rel, simulationSegments...)
}

// terminates reports whether a statement unconditionally leaves the
// surrounding block: return, branch statements, panic, or os.Exit.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK || s.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			return fn.Name == "panic"
		case *ast.SelectorExpr:
			return exprKey(fn) == "os.Exit"
		}
	}
	return false
}
