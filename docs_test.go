package repro_test

import (
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
