package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RecorderGuard enforces the recording hot-path contract documented in
// internal/obs: model code holds a nil Recorder by default, so every
// method call on an obs.Recorder-typed value must be dominated by a nil
// check (or routed through the nil-tolerant helpers obs.Emit/obs.Count,
// which carry the guard). An unguarded call is a latent panic that only
// fires when tracing is off — the common case — so it is enforced
// statically.
//
// Two guard shapes are recognized, matching the idioms in the tree:
//
//	if r != nil { r.Add(...) }          // enclosing guard
//	if r == nil { return }; r.Add(...)  // early-return guard
var RecorderGuard = &Analyzer{
	Name: "recorderguard",
	Doc:  "require a dominating nil check for method calls on an obs.Recorder value",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[sel.X]
				if !ok {
					return true
				}
				if !isObsRecorder(tv.Type) {
					return true
				}
				recv := exprKey(sel.X)
				if recv == "" || nilGuarded(recv, stack) {
					return true
				}
				p.ReportFixf(call.Pos(),
					"guard with `if "+recv+" != nil { ... }` or use obs.Emit/obs.Count, which tolerate nil",
					"%s.%s is called without a dominating nil check; a nil Recorder is the hot-path default", recv, sel.Sel.Name)
				return true
			})
		}
	},
}

// isObsRecorder reports whether t is the obs.Recorder interface
// (matched by package name so testdata stubs behave like the real
// pvcsim/internal package).
func isObsRecorder(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Recorder" || obj.Pkg() == nil || obj.Pkg().Name() != "obs" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}

// nilGuarded reports whether a call on recv at the innermost position
// of stack is dominated by one of the recognized nil-check shapes.
func nilGuarded(recv string, stack []ast.Node) bool {
	inner := ast.Node(nil)
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			// `if recv != nil { ...call... }`: the call must be in the
			// body; landing in Else or Init means the guard failed.
			if inner != nil && inner == n.Body && condAsserts(n.Cond, recv, token.NEQ) {
				return true
			}
		case *ast.BlockStmt:
			// `if recv == nil { return }` earlier in this block.
			idx := len(n.List)
			if inner != nil {
				for j, s := range n.List {
					if s == inner || (s.Pos() <= inner.Pos() && inner.End() <= s.End()) {
						idx = j
						break
					}
				}
			}
			for j := 0; j < idx && j < len(n.List); j++ {
				ifs, ok := n.List[j].(*ast.IfStmt)
				if !ok || ifs.Else != nil {
					continue
				}
				if condAsserts(ifs.Cond, recv, token.EQL) && blockTerminates(ifs.Body) {
					return true
				}
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// Guards do not cross function boundaries: a closure may
			// run long after the check that surrounded its creation...
			// except that a closure built inside `if r != nil` cannot
			// see r become nil if r is never reassigned. Too subtle to
			// bless statically: stop at the boundary and let genuine
			// cases annotate with //pvclint:ignore.
			return false
		}
		inner = stack[i]
	}
	return false
}

// condAsserts reports whether cond establishes `recv <op> nil`, either
// alone or as the leading conjunct/disjunct of a larger condition
// (`r != nil && tracing`, `r == nil || done`).
func condAsserts(cond ast.Expr, recv string, op token.Token) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if c.Op == op {
			x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
			if isNilIdent(y) && exprKey(x) == recv {
				return true
			}
			if isNilIdent(x) && exprKey(y) == recv {
				return true
			}
			return false
		}
		// recv != nil must hold on the && path; recv == nil on either || arm
		// only if it is what short-circuits, so check the left conjunct.
		if (op == token.NEQ && c.Op == token.LAND) || (op == token.EQL && c.Op == token.LOR) {
			return condAsserts(c.X, recv, op) || condAsserts(c.Y, recv, op)
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// blockTerminates reports whether the block's last statement leaves the
// enclosing scope unconditionally.
func blockTerminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	return terminates(b.List[len(b.List)-1])
}
