// Package analysis is a stdlib-only static-analysis framework for the
// repository's determinism and simulation-hygiene invariants.
//
// The paper's quantitative claims rest on every replication being exactly
// reproducible from its seed. That property is easy to break silently: one
// wall-clock read, one range over a map that schedules events, one RNG
// stream shared across goroutines, and two runs with the same seed diverge.
// This package makes those conventions machine-checked. It loads and
// type-checks every package with go/parser + go/types (no external module
// dependencies) and runs a suite of domain-specific checkers over the typed
// syntax trees; cmd/mvlint is the command-line driver.
//
// Rules come in two kinds. A Checker sees one package at a time (the
// original per-package suite: wallclock, maporder, errcheck, ...). A
// ModuleChecker sees every loaded package at once through a ModulePass and
// can consult the whole-module call graph (callgraph.go) — the hotpath rule
// is the canonical example: "no heap allocation reachable from the event
// loop" is a property of the call graph, not of any single package.
//
// Findings can be suppressed per line with
//
//	//mvlint:allow <rule>[,<rule>...] — <reason>
//
// either trailing the offending line or on the line immediately above it.
// The reason is mandatory; a suppression without one is itself reported
// (rule "suppress"), and a suppression that no longer anchors any finding
// is reported by the stale-suppression scan (rule "staleallow", enabled
// with Options.StaleAllow / mvlint -staleallow). See DESIGN.md §8 and §13
// for the rule catalog.
package analysis

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: a rule violation at a source position.
type Diagnostic struct {
	// Rule is the short rule identifier (e.g. "wallclock").
	Rule string `json:"rule"`
	// Pos locates the finding.
	Pos token.Position `json:"-"`
	// File, Line and Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Message explains the violation and the expected remedy.
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is the common surface of every analysis rule, per-package or
// whole-module.
type Rule interface {
	// Name is the rule identifier used by -enable/-disable and
	// //mvlint:allow.
	Name() string
	// Doc is a one-line description for `mvlint -list`.
	Doc() string
}

// Checker is a per-package rule, run once per loaded package.
type Checker interface {
	Rule
	// Check inspects one package and reports findings through the pass.
	Check(p *Pass)
}

// ModuleChecker is a whole-module rule: it sees every loaded package at
// once and may consult the shared call graph.
type ModuleChecker interface {
	Rule
	// CheckModule inspects the whole loaded module.
	CheckModule(p *ModulePass)
}

// Pass hands one package to one checker and collects its findings.
type Pass struct {
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package
	// rule is the active checker's name, stamped on every report.
	rule   string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Rule:    p.rule,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass hands the whole loaded module to one ModuleChecker.
type ModulePass struct {
	// Pkgs are all loaded packages, in load (path-sorted) order.
	Pkgs []*Package
	// Roots configures the hot-path root set (nil means
	// DefaultHotPathRoots). The driver's -roots flag lands here.
	Roots []string

	rule   string
	report func(Diagnostic)

	graphOnce sync.Once
	graph     *CallGraph
}

// Graph returns the module call graph, built once and shared by every
// module rule of the run.
func (p *ModulePass) Graph() *CallGraph {
	p.graphOnce.Do(func() { p.graph = BuildCallGraph(p.Pkgs) })
	return p.graph
}

// Reportf records a finding at pos, resolved through fset (module rules
// span packages, but every package of one run shares one Loader fset).
func (p *ModulePass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	position := fset.Position(pos)
	p.report(Diagnostic{
		Rule:    p.rule,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// simPackages names the import-path segments that identify simulation
// packages: code that runs inside (or assembles) a replication and must be
// bit-reproducible from its seed. Harness-level packages (experiment) are
// included because they schedule replications and aggregate results that
// feed the paper's claim checks.
var simPackages = map[string]bool{
	"des":        true,
	"mms":        true,
	"epidemic":   true,
	"faults":     true,
	"core":       true,
	"virus":      true,
	"response":   true,
	"graph":      true,
	"rng":        true,
	"curve":      true,
	"stats":      true,
	"trace":      true,
	"experiment": true,
}

// IsSimPackage reports whether the import path denotes a simulation package
// (see simPackages). Classification is by path segment so it applies both
// to this module's packages and to the self-test corpus.
func IsSimPackage(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if simPackages[seg] {
			return true
		}
	}
	return false
}

// IsToolPackage reports whether the import path is under internal/ or cmd/,
// the scope of the unchecked-error rule.
func IsToolPackage(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if seg == "internal" || seg == "cmd" {
			return true
		}
	}
	return false
}

// IsSimConfigPackage reports whether the package either is a simulation
// package or configures simulations (cmd/ tools and examples/), the scope
// of the global-RNG rule.
func IsSimConfigPackage(path string) bool {
	if IsSimPackage(path) {
		return true
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" || seg == "examples" {
			return true
		}
	}
	return false
}

// DefaultRules returns the full rule suite in reporting order: the
// per-package checkers followed by the whole-module rules.
func DefaultRules() []Rule {
	return []Rule{
		WallClock{},
		Getenv{},
		GlobalRand{},
		RNGStream{},
		MapOrder{},
		FloatEq{},
		ErrCheck{},
		AtomicProto{},
		GoroutineLeak{},
		HotPath{},
	}
}

// Options configures one analysis run.
type Options struct {
	// Rules is the rule suite (nil means DefaultRules).
	Rules []Rule
	// Enabled maps rule name to whether it runs; nil enables everything.
	Enabled map[string]bool
	// Roots overrides the hot-path root set (nil means
	// DefaultHotPathRoots). //mvlint:hotpath annotations always add.
	Roots []string
	// StaleAllow additionally reports //mvlint:allow comments that no
	// longer anchor a finding for an enabled rule (rule "staleallow").
	StaleAllow bool
	// Jobs bounds the per-package checking workers (<= 0 means
	// GOMAXPROCS). Output is deterministic at any worker count.
	Jobs int
}

// Run executes the enabled rules over the loaded packages, applies
// //mvlint:allow suppressions, and returns the surviving diagnostics sorted
// by position. enabled maps rule name to whether it runs; a nil map enables
// everything.
func Run(pkgs []*Package, rules []Rule, enabled map[string]bool) []Diagnostic {
	return RunOpts(pkgs, Options{Rules: rules, Enabled: enabled})
}

// RunOpts is Run with full configuration.
func RunOpts(pkgs []*Package, o Options) []Diagnostic {
	rules := o.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	enabled := func(r Rule) bool { return o.Enabled == nil || o.Enabled[r.Name()] }

	// Suppression comments are collected up front into one module-wide
	// index (file names are unique across packages) so both per-package
	// and module rules filter through the same gate.
	sup := &suppressions{byFile: map[string][]suppression{}}
	for _, pkg := range pkgs {
		collectSuppressions(pkg, sup)
	}

	// raw accumulates findings before suppression filtering; the stale
	// scan needs them to know which allow comments still earn their keep.
	var mu sync.Mutex
	var raw []Diagnostic

	// Per-package checkers fan out across workers; each (package, rule)
	// unit is independent and reports into the shared slice under the
	// lock. Determinism comes from the final sort, not execution order.
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(pkgs) && len(pkgs) > 0 {
		jobs = len(pkgs)
	}
	var wg sync.WaitGroup
	work := make(chan *Package)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pkg := range work {
				for _, r := range rules {
					c, ok := r.(Checker)
					if !ok || !enabled(r) {
						continue
					}
					pass := &Pass{
						Pkg:  pkg,
						rule: r.Name(),
						report: func(d Diagnostic) {
							mu.Lock()
							raw = append(raw, d)
							mu.Unlock()
						},
					}
					c.Check(pass)
				}
			}
		}()
	}
	for _, pkg := range pkgs {
		work <- pkg
	}
	close(work)
	wg.Wait()

	// Module rules run once over everything, after the per-package fan-out
	// (they share the call graph, whose construction needs all packages).
	mp := &ModulePass{Pkgs: pkgs, Roots: o.Roots}
	for _, r := range rules {
		m, ok := r.(ModuleChecker)
		if !ok || !enabled(r) {
			continue
		}
		mp.rule = r.Name()
		mp.report = func(d Diagnostic) { raw = append(raw, d) }
		m.CheckModule(mp)
	}

	diags := append([]Diagnostic(nil), sup.malformed...)
	for _, d := range raw {
		if !sup.allows(d.Rule, d.Pos) {
			diags = append(diags, d)
		}
	}
	if o.StaleAllow {
		enabledName := func(name string) bool { return o.Enabled == nil || o.Enabled[name] }
		diags = append(diags, staleSuppressions(sup, raw, rules, enabledName)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// staleSuppressions reports every allow comment naming a rule that (a) is
// not in the rule suite at all, or (b) is enabled yet anchors no finding on
// the comment's line or the line below — suppression rot that would
// otherwise silently outlive the code it excused.
func staleSuppressions(sup *suppressions, raw []Diagnostic, rules []Rule, enabled func(string) bool) []Diagnostic {
	known := map[string]bool{"suppress": true, "staleallow": true}
	for _, r := range rules {
		known[r.Name()] = true
	}
	// anchored indexes raw findings by (file, rule) -> line set.
	type key struct {
		file, rule string
	}
	anchored := map[key]map[int]bool{}
	for _, d := range raw {
		k := key{d.Pos.Filename, d.Rule}
		if anchored[k] == nil {
			anchored[k] = map[int]bool{}
		}
		anchored[k][d.Pos.Line] = true
	}
	var out []Diagnostic
	for _, sups := range sup.byFile {
		for _, s := range sups {
			names := make([]string, 0, len(s.rules))
			for r := range s.rules {
				names = append(names, r)
			}
			sort.Strings(names)
			for _, rule := range names {
				if !known[rule] {
					out = append(out, staleDiag(s, fmt.Sprintf("suppression names unknown rule %q", rule)))
					continue
				}
				if !enabled(rule) {
					continue // cannot judge a rule that did not run
				}
				lines := anchored[key{s.file, rule}]
				if lines[s.line] || lines[s.line+1] {
					continue
				}
				out = append(out, staleDiag(s, fmt.Sprintf("stale suppression: no %s finding anchors here anymore; delete the //mvlint:allow", rule)))
			}
		}
	}
	return out
}

// staleDiag builds one staleallow diagnostic at a suppression's position.
func staleDiag(s suppression, msg string) Diagnostic {
	return Diagnostic{
		Rule:    "staleallow",
		Pos:     token.Position{Filename: s.file, Line: s.line, Column: s.col},
		File:    s.file,
		Line:    s.line,
		Col:     s.col,
		Message: msg,
	}
}
