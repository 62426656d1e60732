package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands in model
// code. The simulator's quantities (seconds, bandwidths, FOMs) come out
// of arithmetic chains where exact equality is a rounding accident;
// comparisons should state a tolerance.
//
// Two exact idioms are deliberately permitted:
//   - comparison against the literal constant 0 (or an untyped constant
//     that is exactly zero), the conventional "field was never set"
//     sentinel, which is exact in IEEE 754;
//   - self-comparison (x != x), the NaN test.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= on floats in model code; compare with a tolerance instead",
	Run: func(p *Pass) {
		if !isSimulationPackage(p.Path) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				xt, yt := p.Info.Types[bin.X], p.Info.Types[bin.Y]
				if !isFloat(xt.Type) || !isFloat(yt.Type) {
					return true
				}
				if isZeroConst(xt) || isZeroConst(yt) {
					return true
				}
				if k := exprKey(bin.X); k != "" && k == exprKey(bin.Y) {
					return true // NaN test
				}
				p.ReportFixf(bin.Pos(),
					"compare with a tolerance: math.Abs(a-b) <= tol*math.Abs(b)",
					"exact %s on floating-point operands in model code", bin.Op)
				return true
			})
		}
	},
}

// isZeroConst reports whether the operand is a compile-time constant
// equal to exactly zero.
func isZeroConst(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	f, exact := constant.Float64Val(constant.ToFloat(tv.Value))
	return exact && f == 0
}
