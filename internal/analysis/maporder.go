package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range-over-map loops in simulation packages whose bodies
// do order-sensitive work. Go's map iteration order is deliberately
// randomized, so a loop that schedules DES events, draws from an RNG
// stream, appends to an outer slice, or accumulates floating-point sums
// while ranging a map produces different event orders (or differently
// rounded sums) on every run — even with a fixed seed. The fix is to
// extract and sort the keys first; loops that are genuinely
// order-insensitive carry an //mvlint:allow with the argument why.
//
// The extract-then-sort idiom is recognized: an append target that is
// passed to a sort/slices call later in the same function ends up in a
// deterministic order, so it does not trigger the rule.
type MapOrder struct{}

// Name implements Checker.
func (MapOrder) Name() string { return "maporder" }

// Doc implements Checker.
func (MapOrder) Doc() string {
	return "flag order-sensitive bodies under range-over-map in simulation packages"
}

// Check implements Checker.
func (MapOrder) Check(p *Pass) {
	if !IsSimPackage(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Pkg.Info.Types[rs.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if why := orderSensitive(p.Pkg.Info, f, rs); why != "" {
				p.Reportf(rs.Pos(), "range over map %s: iterate sorted keys for a deterministic order", why)
			}
			return true
		})
	}
}

// sortedLater reports whether obj (the append target, a function-local
// slice) is passed to a sort or slices call after pos — the
// extract-then-sort idiom, which restores a deterministic order.
func sortedLater(info *types.Info, file *ast.File, obj types.Object, after token.Pos) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || call.Pos() < after {
			return true
		}
		switch usedPkgPath(info, sel.Sel) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if root := rootIdent(arg); root != nil && info.Uses[root] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// isBuiltinUse reports whether the identifier resolves to a predeclared
// builtin (and is not shadowed by a local definition).
func isBuiltinUse(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// orderSensitive scans a range-over-map body for order-dependent effects
// and describes the first one found ("" when the body is order-safe).
func orderSensitive(info *types.Info, file *ast.File, rs *ast.RangeStmt) string {
	var why string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "ScheduleArgAt", "ScheduleArgAfter":
					why = "schedules DES events"
					return false
				}
				if recv := info.Types[sel.X].Type; recv != nil && isRNGSource(recv) {
					why = "draws from an RNG stream"
					return false
				}
			}
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltinUse(info, id) {
				// Builtin append growing a slice declared outside the loop
				// freezes the map order into the result.
				if len(v.Args) > 0 {
					root := rootIdent(v.Args[0])
					if root != nil && declaredOutside(info, root, rs, rs) &&
						!sortedLater(info, file, info.Uses[root], rs.End()) {
						why = "appends to an outer slice"
						return false
					}
				}
			}
		case *ast.AssignStmt:
			switch v.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range v.Lhs {
					t := info.Types[lhs].Type
					if t == nil || !isFloat(t) {
						continue
					}
					if root := rootIdent(lhs); root != nil && declaredOutside(info, root, rs, rs) {
						why = "accumulates floats in iteration order"
						return false
					}
				}
			}
		}
		return true
	})
	return why
}
