// Command mvlint runs the repository's determinism and simulation-hygiene
// checkers (internal/analysis) over the module's packages.
//
// Usage:
//
//	mvlint ./...                          # the whole module
//	mvlint ./internal/core ./internal/mms # specific packages
//	mvlint -json ./...                    # machine-readable findings
//	mvlint -disable errcheck ./...        # rule selection
//	mvlint -list                          # print the rule catalog
//	mvlint -roots des.Simulation.step ./...   # override hot-path roots
//	mvlint -why des.Simulation.put ./...      # explain hot-path reachability
//	mvlint -staleallow ./...              # also report stale suppressions
//
// Findings are suppressed per line with
//
//	//mvlint:allow <rule>[,<rule>] — <reason>
//
// trailing the offending line or on the line above it. Exit status: 0 clean,
// 1 findings, 2 usage or load failure. Run from inside the module (import
// resolution type-checks the module from source).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut    = flag.Bool("json", false, "emit findings as a JSON array")
		enable     = flag.String("enable", "", "comma-separated rules to run (default: all)")
		disable    = flag.String("disable", "", "comma-separated rules to skip")
		list       = flag.Bool("list", false, "print the rule catalog and exit")
		roots      = flag.String("roots", "", "comma-separated hot-path root specs (default: the built-in des/mms set)")
		why        = flag.String("why", "", "explain how the named function is reachable from the hot-path roots, then exit")
		staleAllow = flag.Bool("staleallow", false, "also report //mvlint:allow comments that no longer anchor a finding")
		jobs       = flag.Int("jobs", 0, "per-package checking workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	rules := analysis.DefaultRules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.Name(), r.Doc())
		}
		return 0
	}
	enabled, err := ruleSelection(rules, *enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvlint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.NewLoader().LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvlint:", err)
		return 2
	}
	var rootSpecs []string
	if *roots != "" {
		rootSpecs = splitRules(*roots)
	}
	if *why != "" {
		return explainWhy(pkgs, rootSpecs, *why)
	}
	diags := analysis.RunOpts(pkgs, analysis.Options{
		Rules:      rules,
		Enabled:    enabled,
		Roots:      rootSpecs,
		StaleAllow: *staleAllow,
		Jobs:       *jobs,
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "mvlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mvlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}

// explainWhy prints the call chain by which spec became hot-path
// reachable, or says it is not reachable. Exit status mirrors the answer:
// 0 reachable (chain printed), 1 not reachable.
func explainWhy(pkgs []*analysis.Package, rootSpecs []string, spec string) int {
	g := analysis.BuildCallGraph(pkgs)
	r := g.Reach(rootSpecs)
	chain := r.Why(spec)
	if chain == nil {
		fmt.Printf("%s: not reachable from the hot-path roots\n", spec)
		return 1
	}
	for i, line := range chain {
		fmt.Printf("%s%s\n", strings.Repeat("  ", i), line)
	}
	return 0
}

// ruleSelection resolves -enable/-disable into the enabled-rule set,
// rejecting names that match no rule.
func ruleSelection(rules []analysis.Rule, enable, disable string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, r := range rules {
		known[r.Name()] = true
	}
	enabled := map[string]bool{}
	if enable == "" {
		for name := range known {
			enabled[name] = true
		}
	} else {
		for _, name := range splitRules(enable) {
			if !known[name] {
				return nil, fmt.Errorf("unknown rule %q (see -list)", name)
			}
			enabled[name] = true
		}
	}
	for _, name := range splitRules(disable) {
		if !known[name] {
			return nil, fmt.Errorf("unknown rule %q (see -list)", name)
		}
		delete(enabled, name)
	}
	return enabled, nil
}

// splitRules splits a comma-separated rule list, dropping empty entries.
func splitRules(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}
