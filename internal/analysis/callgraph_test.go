package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadCorpus loads one corpus package under the given import path.
func loadCorpus(t *testing.T, dir, path string) *Package {
	t.Helper()
	pkg, err := NewLoader().Load(filepath.Join("testdata", "src", dir), path)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestCallGraphEdges pins edge construction over the hotpath corpus:
// static calls, interface dispatch by name and arity, and closure nodes.
func TestCallGraphEdges(t *testing.T) {
	t.Parallel()

	pkg := loadCorpus(t, "hotpath", "testmod/internal/des")
	g := BuildCallGraph([]*Package{pkg})

	step := g.Nodes["testmod/internal/des.Simulation.step"]
	if step == nil {
		t.Fatal("Simulation.step node missing from the graph")
	}
	kinds := map[string]string{}
	for _, e := range step.Calls {
		if _, seen := kinds[e.To]; !seen {
			kinds[e.To] = e.Kind
		}
	}
	if k := kinds["testmod/internal/des.Simulation.fireOne"]; k != "call" {
		t.Errorf("step -> fireOne edge kind = %q, want call", k)
	}
	if k := kinds["testmod/internal/des.NoisyTracer.Fired"]; k != "iface" {
		t.Errorf("step -> NoisyTracer.Fired edge kind = %q, want iface", k)
	}

	sched := g.Nodes["testmod/internal/des.Simulation.scheduleRetry"]
	if sched == nil {
		t.Fatal("scheduleRetry node missing from the graph")
	}
	closures := 0
	for _, e := range sched.Calls {
		if e.Kind == "closure" {
			closures++
			lit := g.Nodes[e.To]
			if lit == nil {
				t.Fatalf("closure edge to %s has no node", e.To)
			}
			if !strings.HasPrefix(lit.Label, sched.Label+".func") {
				t.Errorf("closure node label %q not derived from parent %q", lit.Label, sched.Label)
			}
		}
	}
	if closures != 1 {
		t.Errorf("scheduleRetry has %d closure edges, want 1", closures)
	}

	if drain := g.Nodes["testmod/internal/des.Drain"]; drain == nil || !drain.HotAnnotated {
		t.Error("Drain must carry its //mvlint:hotpath annotation")
	}
}

// TestReachability pins the root-set closure: transitive and interface
// callees are hot, annotated roots join, construction-time code stays out,
// and -why chains carry provenance.
func TestReachability(t *testing.T) {
	t.Parallel()

	pkg := loadCorpus(t, "hotpath", "testmod/internal/des")
	g := BuildCallGraph([]*Package{pkg})
	r := g.Reach(nil)

	for _, key := range []string{
		"testmod/internal/des.Simulation.step",
		"testmod/internal/des.Simulation.fireOne",
		"testmod/internal/des.box",
		"testmod/internal/des.NoisyTracer.Fired",
		"testmod/internal/des.Drain",
	} {
		if !r.Reachable(key) {
			t.Errorf("%s should be reachable from the default root set", key)
		}
	}
	if r.Reachable("testmod/internal/des.Setup") {
		t.Error("Setup is construction-time code and must not be reachable")
	}

	why := r.Why("des.Simulation.fireOne")
	if len(why) != 2 {
		t.Fatalf("Why(fireOne) = %d hops, want 2:\n%s", len(why), strings.Join(why, "\n"))
	}
	if !strings.Contains(why[0], "[root: des.Simulation.step]") {
		t.Errorf("Why chain must start at the step root, got %q", why[0])
	}
	if !strings.Contains(why[1], "fireOne") || !strings.Contains(why[1], "called from") {
		t.Errorf("Why chain must end with the call into fireOne, got %q", why[1])
	}

	ifaceWhy := r.Why("des.NoisyTracer.Fired")
	if len(ifaceWhy) == 0 || !strings.Contains(ifaceWhy[len(ifaceWhy)-1], "interface dispatch") {
		t.Errorf("Why(NoisyTracer.Fired) must explain the iface edge, got:\n%s",
			strings.Join(ifaceWhy, "\n"))
	}

	if got := r.Why("des.Setup"); got != nil {
		t.Errorf("Why of an unreachable function must be nil, got %q", got)
	}
}

// TestMatchRoot pins the suffix-matching contract for root specs.
func TestMatchRoot(t *testing.T) {
	t.Parallel()

	label := "repro/internal/des.Simulation.step"
	if !MatchRoot(label, "des.Simulation.step") {
		t.Error("path-boundary suffix must match")
	}
	if !MatchRoot("des.Simulation.step", "des.Simulation.step") {
		t.Error("exact label must match")
	}
	if !MatchRoot(label, "internal/des.Simulation.step") {
		t.Error("a longer path-boundary suffix must match")
	}
	if MatchRoot(label, "Simulation.step") {
		t.Error("a non-path-boundary suffix must not match")
	}
	if MatchRoot(label, "es.Simulation.step") {
		t.Error("a mid-segment suffix must not match")
	}
}

// TestDefaultHotPathRootsDeclared fails on a stale root: Reach skips a spec
// that matches no call-graph node, so a renamed or deleted root would
// silently switch the hotpath gate off for everything only it reached.
// Each spec "pkg.Func" or "pkg.Type.Method" must name a declaration in
// the non-test files of internal/<pkg>.
func TestDefaultHotPathRootsDeclared(t *testing.T) {
	t.Parallel()

	declared := map[string]map[string]bool{} // pkg -> "Func" / "Type.Method"
	for _, spec := range DefaultHotPathRoots {
		pkg, name, ok := strings.Cut(spec, ".")
		if !ok {
			t.Errorf("root %q has no package qualifier", spec)
			continue
		}
		if declared[pkg] == nil {
			declared[pkg] = funcDecls(t, filepath.Join("..", pkg))
		}
		if !declared[pkg][name] {
			t.Errorf("root %q names nothing declared in internal/%s", spec, pkg)
		}
	}
}

// funcDecls returns the "Func" and "Type.Method" names declared in the
// non-test Go files of dir.
func funcDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := rootIdent(fn.Recv.List[0].Type)
				if recv == nil {
					continue
				}
				name = recv.Name + "." + name
			}
			names[name] = true
		}
	}
	return names
}
