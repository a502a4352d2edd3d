package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/virus"
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

// TestWriteReportParallelismByteIdentical pins the one shared sweep: a
// single replication cache serves every section, and the report must not
// depend on how many workers race over it.
func TestWriteReportParallelismByteIdentical(t *testing.T) {
	t.Parallel()

	sc := experiment.Scale{Factor: 20}
	var reports [2]string
	for i, jobs := range []int{1, 3} {
		var sb strings.Builder
		opts := core.Options{Replications: 2, GridPoints: 20, Parallelism: jobs}
		now := clock.Stepped(time.Unix(0, 0).UTC(), time.Minute)
		if err := writeReport(&sb, sc, opts, now); err != nil {
			t.Fatal(err)
		}
		reports[i] = sb.String()
	}
	if reports[0] != reports[1] {
		t.Errorf("report differs between Parallelism 1 and 3:\n--- 1 ---\n%s\n--- 3 ---\n%s", reports[0], reports[1])
	}
}

// TestFlagValidation pins that population divisors and replication counts
// below 1 are rejected up front instead of running a mislabelled report.
func TestFlagValidation(t *testing.T) {
	t.Parallel()

	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "-scale must be >= 1"},
		{[]string{"-scale", "-2"}, "-scale must be >= 1"},
		{[]string{"-reps", "0"}, "-reps must be >= 1"},
		{[]string{"-reps", "-1"}, "-reps must be >= 1"},
		{[]string{"-seed", "0"}, "-seed must be >= 1"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
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

	// writeReport renders every study and sensitivity study through
	// writeStudies, which evaluates the claim rows each carries: on a
	// result without series a study with rows fails with
	// ErrSeriesMissing and one without rows prints only its table. Every
	// sensitivity study carries its plateau-invariance row.
	sc := experiment.Scale{Factor: 10}
	sensitivity := experiment.SensitivityStudies(sc, virus.Virus3())
	for _, fig := range sensitivity {
		if fig.Claims == nil {
			t.Errorf("sensitivity study %s carries no plateau claim row", fig.ID)
		}
	}
	wired := 0
	for _, fig := range append(experiment.AllStudies(sc), sensitivity...) {
		rw := &reportWriter{w: io.Discard}
		err := writeStudies(rw, []*experiment.FigureResult{{Figure: fig}})
		if fig.Claims == nil {
			if err != nil {
				t.Errorf("%s has no claim rows but writeStudies returned %v", fig.ID, err)
			}
			continue
		}
		wired++
		if !errors.Is(err, experiment.ErrSeriesMissing) {
			t.Errorf("%s: writeStudies on a result without series returned %v, want ErrSeriesMissing", fig.ID, err)
		}
	}
	if wired <= len(sensitivity) {
		t.Errorf("only %d studies carry claim rows", wired)
	}
}
