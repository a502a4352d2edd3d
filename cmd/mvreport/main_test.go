package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiment"
)

func TestWriteReportScaled(t *testing.T) {
	t.Parallel()

	var sb strings.Builder
	sc := experiment.Scale{Factor: 10}
	opts := core.Options{Replications: 2, GridPoints: 20}
	// A stepped clock pins the wall-clock footer, so the report's shape is
	// fully reproducible.
	now := clock.Stepped(time.Unix(0, 0).UTC(), time.Minute)
	if err := writeReport(&sb, sc, opts, now); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Reproduction report",
		"Figure 1", "Figure 7",
		"claim checks passed",
		"| Series | Final infected (mean) |",
		"Total wall clock 1m0s.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Every claim-bearing study must contribute check lines.
	if strings.Count(out, "- **") < 15 {
		t.Errorf("report has too few claim lines:\n%s", out)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errors.New("disk full")
	}
	f.budget -= len(p)
	return len(p), nil
}

// TestWriteReportSurfacesWriteErrors pins the reportWriter contract: a
// failing output writer must fail the run, not truncate the report
// silently.
func TestWriteReportSurfacesWriteErrors(t *testing.T) {
	t.Parallel()

	sc := experiment.Scale{Factor: 20}
	opts := core.Options{Replications: 1, GridPoints: 5}
	err := writeReport(&failWriter{budget: 64}, sc, opts, clock.Fixed(time.Unix(0, 0)))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("want disk full error, got %v", err)
	}
}

func TestClaimEvaluatorsMatchStudies(t *testing.T) {
	t.Parallel()

	// writeReport evaluates the claim check each study carries; the
	// studies carrying one are exactly the paper's in-text claims.
	want := map[string]bool{
		"figure2": true, "figure3": true, "figure4": true,
		"figure5": true, "figure6": true, "figure7": true,
		"neg-scan-v3": true, "neg-monitor-slow": true,
		"neg-blacklist-v2": true, "neg-blacklist-v1": true,
		"blacklist-equivalence": true,
	}
	got := make(map[string]bool)
	for _, fig := range experiment.AllStudies(experiment.Scale{Factor: 10}) {
		if fig.Claims != nil {
			got[fig.ID] = true
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("claim check carried by unexpected study %q", id)
		}
	}
	for id := range want {
		if !got[id] {
			t.Errorf("no study carries the claim check for %q", id)
		}
	}
}
