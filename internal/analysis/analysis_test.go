package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation markers of a corpus line:
//
//	code() // want `regex` `another`
//
// Each backquoted pattern must match one diagnostic ("[rule] message")
// reported on that line, and every diagnostic must be claimed by a marker.
var wantRe = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")

var patRe = regexp.MustCompile("`([^`]*)`")

// expectation is one want marker.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// corpusCases maps each corpus directory to the import path it is loaded
// under; the path drives the rules' package-scope classification.
var corpusCases = []struct{ dir, path string }{
	{"nondet", "testmod/internal/mms"},
	{"maporder", "testmod/internal/des"},
	{"rngstream", "testmod/internal/core"},
	{"floateq", "testmod/internal/epidemic"},
	{"errcheck", "testmod/internal/faults"},
	{"atomicproto", "testmod/cmd/mvtool"},
	{"hotpath", "testmod/internal/des"},
	{"goroutineleak", "testmod/internal/experiment"},
	{"suppress", "testmod/internal/response"},
	{"clean", "testmod/internal/virus"},
}

// TestCheckersOnCorpus proves every rule fires on its seeded violations
// and stays quiet on the idiomatic counterparts.
func TestCheckersOnCorpus(t *testing.T) {
	t.Parallel()

	loader := NewLoader()
	for _, tc := range corpusCases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := loader.Load(dir, tc.path)
			if err != nil {
				t.Fatal(err)
			}
			wants := parseWants(t, dir)
			diags := Run([]*Package{pkg}, DefaultRules(), nil)
			for _, d := range diags {
				rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
				if !claim(wants, d.Pos.Filename, d.Pos.Line, rendered) {
					t.Errorf("unexpected diagnostic %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q never reported",
						w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// claim marks the first unmatched expectation at file:line whose pattern
// matches the rendered diagnostic.
func claim(wants []*expectation, file string, line int, rendered string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.pattern.MatchString(rendered) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants collects the want markers of every corpus file in dir.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pat := range patRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(pat[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat[1], err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, pattern: re})
			}
		}
	}
	return wants
}

// TestSplitReason pins the suppression grammar.
func TestSplitReason(t *testing.T) {
	t.Parallel()

	cases := []struct{ in, spec, reason string }{
		{" wallclock — harness timing", "wallclock", "harness timing"},
		{" floateq,maporder -- two rules", "floateq,maporder", "two rules"},
		{" wallclock", "wallclock", ""},
		{" — reason only", "", "reason only"},
	}
	for _, c := range cases {
		spec, reason := splitReason(c.in)
		if spec != c.spec || reason != c.reason {
			t.Errorf("splitReason(%q) = %q, %q; want %q, %q", c.in, spec, reason, c.spec, c.reason)
		}
	}
}

// TestPackageScopes pins the path classification the rules scope by.
func TestPackageScopes(t *testing.T) {
	t.Parallel()

	cases := []struct {
		path               string
		sim, tool, simConf bool
	}{
		{"repro/internal/des", true, true, true},
		{"repro/internal/experiment", true, true, true},
		{"repro/internal/analysis", false, true, false},
		{"repro/internal/clock", false, true, false},
		{"repro/cmd/mvsim", false, true, true},
		{"repro/examples/quickstart", false, false, true},
	}
	for _, c := range cases {
		if got := IsSimPackage(c.path); got != c.sim {
			t.Errorf("IsSimPackage(%q) = %v, want %v", c.path, got, c.sim)
		}
		if got := IsToolPackage(c.path); got != c.tool {
			t.Errorf("IsToolPackage(%q) = %v, want %v", c.path, got, c.tool)
		}
		if got := IsSimConfigPackage(c.path); got != c.simConf {
			t.Errorf("IsSimConfigPackage(%q) = %v, want %v", c.path, got, c.simConf)
		}
	}
}

// TestStaleAllow pins the -staleallow audit over its dedicated corpus: a
// suppression that still anchors a finding stays quiet, a stale one is
// flagged for deletion, and one naming an unknown rule is flagged too.
func TestStaleAllow(t *testing.T) {
	t.Parallel()

	loader := NewLoader()
	pkg, err := loader.Load(filepath.Join("testdata", "src", "staleallow"), "testmod/internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunOpts([]*Package{pkg}, Options{StaleAllow: true})
	var stale, unknown int
	for _, d := range diags {
		if d.Rule != "staleallow" {
			t.Errorf("unexpected non-audit diagnostic %s", d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "stale suppression"):
			stale++
		case strings.Contains(d.Message, "unknown rule"):
			unknown++
		default:
			t.Errorf("unexpected audit diagnostic %s", d)
		}
	}
	if stale != 1 || unknown != 1 {
		t.Errorf("staleallow audit reported %d stale + %d unknown suppressions, want 1 + 1", stale, unknown)
	}
}

// TestRuleSelection pins per-rule enable/disable through Run.
func TestRuleSelection(t *testing.T) {
	t.Parallel()

	loader := NewLoader()
	pkg, err := loader.Load(filepath.Join("testdata", "src", "floateq"), "testmod/internal/epidemic")
	if err != nil {
		t.Fatal(err)
	}
	all := Run([]*Package{pkg}, DefaultRules(), nil)
	if len(all) == 0 {
		t.Fatal("corpus produced no findings with all rules enabled")
	}
	none := Run([]*Package{pkg}, DefaultRules(), map[string]bool{"errcheck": true})
	if len(none) != 0 {
		t.Fatalf("floateq corpus with only errcheck enabled: got %d findings, want 0", len(none))
	}
}
