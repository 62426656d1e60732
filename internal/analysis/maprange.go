package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// outputMethods are method/function names whose call inside a
// map-range body means iteration order has reached an output stream:
// once bytes are written the order can no longer be repaired by a later
// sort.
var outputMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Encode": true, "Render": true, "WriteAll": true,
}

// scheduleMethods are simulation scheduling sinks: Engine.Schedule
// enqueues a future event, Timer.Arm re-arms one, Timer.Reserve takes
// the sequence number an Arm would and Timer.ArmReserved arms under it,
// Signal.Fire wakes waiters, and Go admits a new process. Each stamps an
// admission sequence number the event queue uses to break time ties, and
// Engine.AtInstantEnd runs its callbacks in registration order, so
// calling one from a map-range body bakes iteration order into the event
// schedule itself — unlike a slice, that order can never be repaired by a
// later sort.
var scheduleMethods = map[string]bool{
	"Schedule": true, "Arm": true, "Reserve": true, "ArmReserved": true,
	"AtInstantEnd": true, "Fire": true, "Go": true,
}

// writerName matches local helpers whose name says they produce output
// (writeChart, renderRow, emitCSV, ...): calling one from inside a
// map-range body leaks iteration order even though the stream write
// itself is out of sight inside the helper.
var writerName = regexp.MustCompile(`^(write|render|print|emit|encode|output|save|dump|fprint)`)

// sortFuncs are the sort/slices package functions accepted as "the
// slice is ordered before use".
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// MapRange hunts the exact bug class PR 2 fixed in the Figure 1 rows:
// Go map iteration order is randomized per run, so a `range` over a map
// must never feed ordered output. Three shapes are flagged:
//
//   - a write/print/encode call inside the body — the order escaped
//     directly into a stream;
//   - an append to a slice declared outside the loop with no sort of
//     that slice later in the same block — the standard collect-keys
//     idiom is fine precisely because of its trailing sort.Strings;
//   - a scheduling call (Schedule/Arm/Reserve/ArmReserved/AtInstantEnd/
//     Fire/Go) inside the body — the order
//     escaped into the event admission sequence, which the event heap
//     treats as a tiebreaker, so the simulated results themselves
//     become run-to-run nondeterministic.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flag map iteration whose order reaches a slice or output stream unsorted",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(p, rng, stack)
				return true
			})
		}
	},
}

func checkMapRange(p *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "append" && len(call.Args) > 0 {
				checkAppend(p, rng, stack, call)
			} else if writerName.MatchString(fn.Name) {
				p.ReportFixf(call.Pos(),
					"iterate a sorted slice of keys instead of the map",
					"call to %s inside a range over a map emits output in nondeterministic order", fn.Name)
			}
		case *ast.SelectorExpr:
			if outputMethods[fn.Sel.Name] {
				p.ReportFixf(call.Pos(),
					"collect the keys, sort them, and iterate the sorted slice",
					"%s inside a range over a map writes output in nondeterministic order", fn.Sel.Name)
			} else if scheduleMethods[fn.Sel.Name] {
				p.ReportFixf(call.Pos(),
					"collect the targets into a slice, sort it, then schedule from the sorted slice",
					"%s inside a range over a map admits simulation events in nondeterministic order; the event heap breaks time ties by admission sequence, so no later sort can repair it", fn.Sel.Name)
			}
		}
		return true
	})
}

// checkAppend flags `dst = append(dst, ...)` inside the map-range body
// when dst outlives the loop and no later statement in an enclosing
// block sorts it.
func checkAppend(p *Pass, rng *ast.RangeStmt, stack []ast.Node, call *ast.CallExpr) {
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := p.Info.Uses[dst]
	if obj == nil {
		return
	}
	// A slice declared inside the loop body dies with the iteration;
	// its order cannot outlive the loop.
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return
	}
	if sortedAfter(p, rng, stack, obj) {
		return
	}
	p.ReportFixf(call.Pos(),
		"sort "+dst.Name+" after the loop (sort.Strings/sort.Slice), or iterate sorted keys",
		"append to %q inside a range over a map captures nondeterministic order and is never sorted", dst.Name)
}

// sortedAfter reports whether any statement after the range loop,
// within the blocks enclosing it, calls a sort function on obj.
func sortedAfter(p *Pass, rng *ast.RangeStmt, stack []ast.Node, obj types.Object) bool {
	// Walk enclosing blocks innermost-first; in each, consider only the
	// statements after the one containing the loop.
	inner := ast.Node(rng)
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			inner = stack[i]
			continue
		}
		idx := -1
		for j, s := range block.List {
			if s.Pos() <= inner.Pos() && inner.End() <= s.End() {
				idx = j
				break
			}
		}
		for j := idx + 1; j >= 0 && j < len(block.List); j++ {
			if stmtSorts(p, block.List[j], obj) {
				return true
			}
		}
		inner = block
	}
	return false
}

// stmtSorts reports whether the statement contains a call to a known
// sort function mentioning obj in its arguments.
func stmtSorts(p *Pass, s ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[exprKey(sel)] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
