package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath is the interprocedural allocation gate: every function reachable
// in the module call graph from the hot-path root set (DefaultHotPathRoots,
// -roots, or //mvlint:hotpath annotations) must not heap-allocate. The
// rule is the static complement of the testing.AllocsPerRun pins: the pins
// prove zero allocations on the paths the benchmarks exercise, this rule
// proves it for every path the call graph can reach.
//
// Flagged allocation shapes: make (map/chan/slice), new, address-taken or
// map/slice composite literals, copy-appends (append([]T(nil), ...)),
// append growth of a function-local slice inside a loop, defer and string
// concatenation inside loops, closures that capture variables, and
// interface boxing of non-pointer arguments at call sites.
//
// One exemption keeps the rule aligned with the codebase's error
// discipline: allocation sites lexically inside a `return` statement whose
// final result is a non-nil error expression are cold error exits
// (fmt.Errorf and friends), taken zero times per event in a correct run,
// and are not flagged. When that final result is a call to a standard error
// constructor (fmt.Errorf, errors.New, errors.Join), the error is non-nil
// whatever its arguments return, so calls made inside those arguments run
// only while building it: reachability does not follow them (Reach), and a
// callee reached only there — a Name() formatted into the error, say — is
// not hot. A return of any other call, such as `return s.step()`, may well
// return nil every event, so its callee stays on the hot path.
type HotPath struct{}

// Name implements Rule.
func (HotPath) Name() string { return "hotpath" }

// Doc implements Rule.
func (HotPath) Doc() string {
	return "forbid heap allocation in functions reachable from the hot-path root set"
}

// CheckModule implements ModuleChecker.
func (HotPath) CheckModule(p *ModulePass) {
	g := p.Graph()
	r := g.Reach(p.Roots)
	for _, key := range r.Nodes() {
		checkHotBody(p, g.Nodes[key])
	}
}

// span is a half-open source range.
type span struct{ from, to token.Pos }

func (s span) contains(p token.Pos) bool { return s.from <= p && p < s.to }

func inSpans(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

// checkHotBody scans one reachable function body for allocation sites.
// Nested function literals are skipped — each reachable literal is its own
// graph node and gets its own scan; the literal's creation cost is charged
// to the parent here.
func checkHotBody(p *ModulePass, node *CGNode) {
	info := node.Pkg.Info
	fset := node.Pkg.Fset

	loopSpans := collectLoopSpans(node)

	hint := " (trace: mvlint -why " + node.Label + ")"
	flagged := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if inSpans(node.cold.returns, pos) || flagged[pos] {
			return
		}
		flagged[pos] = true
		p.Reportf(fset, pos, "hot path %s: "+format+hint, append([]any{node.Label}, args...)...)
	}

	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if v.Body != node.Body { // scanning a literal node: don't skip its own body
				if capt := capturedVar(node, v, info); capt != "" {
					report(v.Pos(), "closure captures %q and allocates per creation; hoist it to construction time or pass state explicitly", capt)
				}
				return false
			}
		case *ast.CallExpr:
			checkHotCall(node, v, info, loopSpans, report)
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
					report(lit.Pos(), "address-taken composite literal escapes to the heap; reuse a pooled or preallocated value")
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(v)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(v.Pos(), "map literal allocates; build the map at construction time")
			case *types.Slice:
				report(v.Pos(), "slice literal allocates; preallocate at construction time")
			}
			return false // elements of a flagged literal need no second report
		case *ast.DeferStmt:
			if inSpans(loopSpans, v.Pos()) {
				report(v.Pos(), "defer inside a loop allocates a frame per iteration; restructure the loop body into a function")
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && inSpans(loopSpans, v.Pos()) {
				if b, ok := info.TypeOf(v).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					report(v.Pos(), "string concatenation inside a loop allocates per iteration; use a preallocated buffer")
				}
			}
		}
		return true
	})
}

// checkHotCall handles the call-shaped allocation checks: make/new,
// append, and interface boxing of arguments.
func checkHotCall(node *CGNode, call *ast.CallExpr, info *types.Info, loopSpans []span, report func(token.Pos, string, ...any)) {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates per event; allocate at construction time and reuse")
			case "new":
				report(call.Pos(), "new allocates per event; reuse a pooled or preallocated value")
			case "append":
				checkHotAppend(call, info, loopSpans, report)
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pt := paramType(sig, i, call)
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		report(arg.Pos(), "argument boxes %s into an interface and allocates; avoid the interface on this path", at.String())
	}
}

// checkHotAppend distinguishes amortized growth of a long-lived buffer
// (append to a struct field — the des arena/heap idiom, fine) from per-event
// allocation: copy-appends to a fresh slice, and growth of a function-local
// slice inside a loop.
func checkHotAppend(call *ast.CallExpr, info *types.Info, loopSpans []span, report func(token.Pos, string, ...any)) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	switch d := dst.(type) {
	case *ast.CompositeLit:
		report(call.Pos(), "append to a fresh slice literal copies per call; preallocate the destination")
	case *ast.CallExpr:
		// append([]T(nil), xs...) — the copy-append idiom.
		if tv, ok := info.Types[d.Fun]; ok && tv.IsType() {
			report(call.Pos(), "copy-append (append to a nil conversion) allocates per call; reuse a preallocated buffer")
		}
	case *ast.Ident:
		if inSpans(loopSpans, call.Pos()) {
			report(call.Pos(), "append growth of local slice %q inside a loop; preallocate with the expected capacity", d.Name)
		}
	}
}

// paramType returns the type of parameter i of sig, unrolling variadics.
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		if call.Ellipsis.IsValid() {
			return nil // the slice is passed whole, no boxing here
		}
		last := params.At(params.Len() - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}

// boxFree reports whether converting a value of type t to an interface is
// allocation-free: interfaces stay interfaces, and single-word pointer
// shapes fit the interface data word directly.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil
	}
	return false
}

// capturedVar returns the name of a variable the literal captures from its
// enclosing function (parameters and receiver included), or "" if the
// literal is capture-free. Package-level variables are not captures.
func capturedVar(node *CGNode, lit *ast.FuncLit, info *types.Info) string {
	encl := span{node.Pos, node.Body.End()}
	inner := span{lit.Pos(), lit.End()}
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if encl.contains(v.Pos()) && !inner.contains(v.Pos()) {
			found = v.Name()
		}
		return true
	})
	return found
}

// coldExits are a node's cold error exits: return statements whose final
// result is a non-nil error expression, taken zero times per event in a
// correct run. BuildCallGraph records them once per node, for Reach and
// checkHotBody alike.
type coldExits struct {
	// returns span each such statement; allocation sites inside are exempt.
	returns []span
	// ctorArgs span the arguments of each such statement whose final
	// result is a standard error constructor call; Reach does not follow
	// calls made there.
	ctorArgs []span
}

// findColdExits collects a node's cold error exits. Nested literals are
// excluded — their returns belong to them.
func findColdExits(node *CGNode) coldExits {
	info := node.Pkg.Info
	var c coldExits
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if v.Body != node.Body {
				return false
			}
		case *ast.ReturnStmt:
			if len(v.Results) == 0 {
				return true
			}
			last := ast.Unparen(v.Results[len(v.Results)-1])
			if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
			if t := info.TypeOf(last); t == nil || !types.Identical(t, errorType) {
				return true
			}
			c.returns = append(c.returns, span{v.Pos(), v.End()})
			if call, ok := last.(*ast.CallExpr); ok && isErrorConstructor(call, info) {
				c.ctorArgs = append(c.ctorArgs, span{call.Lparen, call.Rparen})
			}
		}
		return true
	})
	return c
}

// isErrorConstructor reports whether call is fmt.Errorf, errors.New or
// errors.Join: calls that return a non-nil error whatever their arguments.
func isErrorConstructor(call *ast.CallExpr, info *types.Info) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "fmt.Errorf", "errors.New", "errors.Join":
		return true
	}
	return false
}

// collectLoopSpans collects for/range statement spans within the node's own
// body (nested literals excluded).
func collectLoopSpans(node *CGNode) []span {
	var spans []span
	ast.Inspect(node.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if v.Body != node.Body {
				return false
			}
		case *ast.ForStmt:
			spans = append(spans, span{v.Body.Lbrace, v.Body.Rbrace})
		case *ast.RangeStmt:
			spans = append(spans, span{v.Body.Lbrace, v.Body.Rbrace})
		}
		return true
	})
	return spans
}
