package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a repository path the docs name under one of the
// directories they cite: a run of path characters, where a {a,b} group
// lists alternatives. A `:line` suffix is not part of the match.
var docPath = regexp.MustCompile(`(?:^|[^\w/.-])((?:internal|cmd|examples|scripts|perfbench|results)/(?:[\w./*-]|\{[\w.,/-]*\})*)`)

// symbolSuffix is a trailing Go identifier chain, as in
// internal/clock.Clock or internal/core.Config.Validate.
var symbolSuffix = regexp.MustCompile(`\.[A-Z]\w*(?:\.\w+)*$`)

// TestDocPathsExist checks that every repository path README.md,
// DESIGN.md and EXPERIMENTS.md name still exists, so a deleted or moved
// package cannot leave the docs pointing at it.
func TestDocPathsExist(t *testing.T) {
	t.Parallel()

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				p := symbolSuffix.ReplaceAllString(strings.TrimRight(m[1], "."), "")
				for _, alt := range expandBraces(p) {
					if matches, err := filepath.Glob(alt); err != nil || len(matches) == 0 {
						t.Errorf("%s:%d names %s, which does not exist", doc, i+1, alt)
					}
				}
			}
		}
	}
}

// codeSpan matches one backquoted span of a Markdown line.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// qualifiedName matches pkg.Name or pkg.Type.Member inside a code span.
var qualifiedName = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)

// TestDocSymbolsExist checks that every pkg.Name and pkg.Type.Member that
// README.md, DESIGN.md and EXPERIMENTS.md backquote, where pkg is a
// directory under internal/, is declared in that package's non-test
// files, and that every TestX, BenchmarkX, FuzzX and ExampleX they
// backquote is declared in some _test.go file of the repository (a name
// ending in * needs one declaration with that prefix), so a deleted or
// renamed identifier or test cannot leave the docs naming it.
func TestDocSymbolsExist(t *testing.T) {
	t.Parallel()

	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(t)
	pkgs := make(map[string]*pkgDecls)
	for _, dir := range dirs {
		if info, err := os.Stat(dir); err == nil && info.IsDir() {
			pkgs[filepath.Base(dir)] = parseDecls(t, dir)
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range testFuncName.FindAllStringSubmatch(span[1], -1) {
					if !declaredTest(tests, m[1], m[2] == "*") {
						t.Errorf("%s:%d names %s%s, which no _test.go file declares", doc, i+1, m[1], m[2])
					}
				}
				for _, m := range qualifiedName.FindAllStringSubmatch(span[1], -1) {
					decls, ok := pkgs[m[1]]
					if !ok {
						continue
					}
					if !decls.top[m[2]] {
						t.Errorf("%s:%d names %s.%s, which internal/%s does not declare", doc, i+1, m[1], m[2], m[1])
					} else if m[3] != "" && !decls.members[m[2]][m[3]] {
						t.Errorf("%s:%d names %s.%s.%s, which is not a method or field of %s.%s", doc, i+1, m[1], m[2], m[3], m[1], m[2])
					}
				}
			}
		}
	}
}

// testFuncName matches a test, benchmark, fuzz target or example name
// inside a code span, with an optional trailing * that makes it a prefix.
var testFuncName = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)(\*?)`)

// testFuncs returns the names of the top-level functions declared in
// every _test.go file under the repository root.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// declaredTest reports whether name is declared, or with prefix set,
// whether some declared name starts with it.
func declaredTest(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// pkgDecls indexes one package's declarations: its top-level names, and
// per type the methods and fields (interface methods, embedded fields)
// it declares.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

// parseDecls parses the non-test Go files of dir.
func parseDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	d := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
	addMember := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
				} else {
					addMember(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.top[typ] = true
						var fields *ast.FieldList
						switch tt := spec.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							if len(field.Names) == 0 {
								addMember(typ, typeName(field.Type))
							}
							for _, n := range field.Names {
								addMember(typ, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return d
}

// typeName returns the base name of a receiver or embedded field type:
// T for T, *T and pkg.T.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// expandBraces expands the first {a,b,...} group of p, recursively.
func expandBraces(p string) []string {
	open := strings.IndexByte(p, '{')
	end := strings.IndexByte(p, '}')
	if open < 0 || end < open {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:end], ",") {
		out = append(out, expandBraces(p[:open]+alt+p[end+1:])...)
	}
	return out
}
