package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds a whole-module call graph over every loaded package so
// module rules (hotpath.go) can reason interprocedurally. The graph is
// deliberately conservative and stdlib-only:
//
//   - Static calls (package functions, methods on concrete types) resolve
//     exactly, across packages. Because the source importer gives each
//     dependency its own type universe, cross-package callees are matched
//     by canonical label (pkgpath.Type.Method), never by object identity.
//   - Interface method calls resolve by name and arity to every method of
//     that shape declared in the loaded packages — a superset of the truth
//     (class-hierarchy analysis without cross-universe Implements checks).
//   - Function literals are nodes of their own, linked from the function
//     that creates them ("closure" edges): a closure built on a hot path
//     runs on that hot path.
//   - References to named functions outside call position ("ref" edges)
//     are traversed too: a function whose value escapes from hot code may
//     be invoked by it later.
//   - Calls through plain func values (fields, parameters) stay
//     unresolved; the caller is marked Dynamic so reports and -why can say
//     so. This is the one deliberate under-approximation, documented in
//     DESIGN.md §13.
//
// All map iterations feeding output are key-sorted; graph construction and
// reachability are deterministic for a fixed package list.

// CGNode is one function in the module call graph: a declared function or
// method, or a function literal.
type CGNode struct {
	// Key uniquely identifies the node. For declared functions it equals
	// Label; literals append their position.
	Key string
	// Label is the human-readable canonical name:
	// pkgpath.Func, pkgpath.Type.Method, or pkgpath.Parent.funcN for
	// literals.
	Label string
	// Pkg is the package the node's body lives in.
	Pkg *Package
	// Body is the function body (never nil for graph nodes; bodyless
	// declarations are not nodes).
	Body *ast.BlockStmt
	// Pos is the declaration or literal position.
	Pos token.Pos
	// Calls are the node's outgoing edges in source order.
	Calls []CGEdge
	// HotAnnotated marks a //mvlint:hotpath annotation on the declaration.
	HotAnnotated bool
	// Dynamic records that the body performs at least one call through a
	// plain func value that the graph cannot resolve.
	Dynamic bool
	// lit is the literal node's syntax, nil for declarations.
	lit *ast.FuncLit
	// cold are the body's cold error exits (findColdExits).
	cold coldExits
}

// CGEdge is one outgoing call-graph edge.
type CGEdge struct {
	// To is the callee node's Key. The callee may be absent from the
	// graph (stdlib, unloaded package); reachability skips such edges.
	To string
	// Pos is the call (or literal / reference) site.
	Pos token.Pos
	// Kind is "call" (static), "iface" (interface dispatch candidate),
	// "closure" (literal created here), or "ref" (function value taken).
	Kind string
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	// Nodes maps Key to node.
	Nodes map[string]*CGNode

	// methodIndex maps method name -> nodes, for name+arity interface
	// dispatch resolution.
	methodIndex map[string][]*CGNode
}

// hotAnnotation marks a function declaration as a hot-path root.
const hotAnnotation = "//mvlint:hotpath"

// BuildCallGraph constructs the call graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[string]*CGNode{}, methodIndex: map[string][]*CGNode{}}
	b := &graphBuilder{g: g}

	// Pass 1: one node per declared function with a body, so pass 2 can
	// resolve forward references in any package order.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				label := funcLabel(fn)
				node := &CGNode{
					Key:          label,
					Label:        label,
					Pkg:          pkg,
					Body:         fd.Body,
					Pos:          fd.Pos(),
					HotAnnotated: hasHotAnnotation(fd),
				}
				g.Nodes[label] = node
				if fn.Type().(*types.Signature).Recv() != nil {
					g.methodIndex[fn.Name()] = append(g.methodIndex[fn.Name()], node)
				}
			}
		}
	}

	// Pass 2: edges. Literal nodes are created as they are encountered.
	for _, key := range sortedKeys(g.Nodes) {
		node := g.Nodes[key]
		if node.lit == nil {
			b.walkBody(node)
		}
	}

	// Pass 3: resolve interface dispatch candidates by name + arity.
	for _, call := range b.ifaceCalls {
		from := g.Nodes[call.from]
		for _, m := range g.methodIndex[call.name] {
			if m.Key == call.from {
				continue
			}
			sig := methodSignature(m)
			if sig == nil || sig.Params().Len() != call.params || sig.Results().Len() != call.results {
				continue
			}
			from.Calls = append(from.Calls, CGEdge{To: m.Key, Pos: call.pos, Kind: "iface"})
		}
	}
	return g
}

// ifaceCall records one interface method call site awaiting resolution.
type ifaceCall struct {
	from            string
	name            string
	params, results int
	pos             token.Pos
}

// graphBuilder carries pass-2 state.
type graphBuilder struct {
	g          *CallGraph
	ifaceCalls []ifaceCall
}

// walkBody scans one node's body, adding edges and creating nodes for the
// function literals it encounters. Literal bodies are walked as their own
// nodes, not as part of the parent.
func (b *graphBuilder) walkBody(node *CGNode) {
	node.cold = findColdExits(node)
	litCount := 0
	// callFuns marks expressions in call position so pass-2's reference
	// scan does not double-count a static call as a value reference.
	callFuns := map[ast.Node]bool{}
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fun := ast.Unparen(call.Fun)
			callFuns[fun] = true
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				callFuns[sel.Sel] = true
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			litCount++
			lit := &CGNode{
				Key:   fmt.Sprintf("%s.func%d@%d", node.Label, litCount, v.Pos()),
				Label: fmt.Sprintf("%s.func%d", node.Label, litCount),
				Pkg:   node.Pkg,
				Body:  v.Body,
				Pos:   v.Pos(),
				lit:   v,
			}
			b.g.Nodes[lit.Key] = lit
			node.Calls = append(node.Calls, CGEdge{To: lit.Key, Pos: v.Pos(), Kind: "closure"})
			b.walkBody(lit)
			return false // the literal's body belongs to the literal node
		case *ast.CallExpr:
			b.addCallEdge(node, v)
			return true
		case *ast.Ident:
			// Covers both bare references (handler := step) and method
			// values (h := e.onTimedFire): Inspect descends into the
			// selector's Sel ident, whose Uses entry is the method.
			if !callFuns[v] {
				b.addRefEdge(node, v, v.Pos())
			}
			return true
		}
		return true
	}
	ast.Inspect(node.Body, walk)
}

// addCallEdge resolves one call expression into an edge (or an interface
// dispatch record, or a Dynamic mark).
func (b *graphBuilder) addCallEdge(node *CGNode, call *ast.CallExpr) {
	info := node.Pkg.Info
	fun := ast.Unparen(call.Fun)
	// Type conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	case *ast.FuncLit:
		// Immediately-invoked literal: the closure edge added by walkBody
		// already covers it.
		return
	default:
		// Call through an arbitrary expression (map of funcs, call
		// returning a func, ...): unresolvable.
		node.Dynamic = true
		return
	}
	switch o := obj.(type) {
	case *types.Func:
		sig := o.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				b.ifaceCalls = append(b.ifaceCalls, ifaceCall{
					from:    node.Key,
					name:    o.Name(),
					params:  sig.Params().Len(),
					results: sig.Results().Len(),
					pos:     call.Pos(),
				})
				return
			}
		}
		node.Calls = append(node.Calls, CGEdge{To: funcLabel(o), Pos: call.Pos(), Kind: "call"})
	case *types.Builtin, *types.TypeName, nil:
		// make/len/append/conversions: no edge.
	default:
		// A variable or field of func type: dynamic call.
		node.Dynamic = true
	}
}

// addRefEdge records a named function whose value is taken outside call
// position — it may be invoked later by whatever received it.
func (b *graphBuilder) addRefEdge(node *CGNode, id *ast.Ident, pos token.Pos) {
	fn, ok := node.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	key := funcLabel(fn)
	if _, known := b.g.Nodes[key]; !known {
		return // stdlib or unloaded package
	}
	node.Calls = append(node.Calls, CGEdge{To: key, Pos: pos, Kind: "ref"})
}

// methodSignature returns the node's *types.Signature, or nil for
// literals and unresolvable declarations.
func methodSignature(n *CGNode) *types.Signature {
	if n.lit != nil {
		return nil
	}
	// The node label was built from the Defs entry; recover it by
	// scanning the package scope is unnecessary — keep the signature via
	// the declaring file instead.
	for _, f := range n.Pkg.Files {
		if f.Pos() <= n.Pos && n.Pos <= f.End() {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() == n.Pos {
					if fn, ok := n.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
						return fn.Type().(*types.Signature)
					}
				}
			}
		}
	}
	return nil
}

// funcLabel renders a function or method as its canonical graph label:
// pkgpath.Func for functions, pkgpath.Type.Method for methods (pointer
// receivers are spelled identically to value receivers so root specs need
// not care).
func funcLabel(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch tt := t.(type) {
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
			}
			return obj.Name() + "." + fn.Name()
		default:
			return fn.FullName()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// hasHotAnnotation reports whether the declaration carries a
// //mvlint:hotpath marker in its doc comment.
func hasHotAnnotation(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == hotAnnotation || strings.HasPrefix(text, hotAnnotation+" ") {
			return true
		}
	}
	return false
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]*CGNode) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
