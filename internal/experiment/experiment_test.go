package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/virus"
)

// testScale shrinks the population 10x so every figure runs in seconds.
var testScale = Scale{Factor: 10}

// testOpts keeps replication counts small for CI.
var testOpts = core.Options{Replications: 3, GridPoints: 40}

func TestFigureDefinitionsComplete(t *testing.T) {
	t.Parallel()

	figs := AllFigures(FullScale)
	if len(figs) != 7 {
		t.Fatalf("got %d figures, want 7", len(figs))
	}
	wantSeries := map[string]int{
		"figure1": 4, // four baselines
		"figure2": 4, // baseline + 3 delays
		"figure3": 6, // baseline + 5 accuracies
		"figure4": 8, // 4 baselines + 4 educated
		"figure5": 7, // baseline + 2x3 deployments
		"figure6": 4, // baseline + 3 waits
		"figure7": 5, // baseline + 4 thresholds
	}
	for _, f := range figs {
		if got := len(f.Series); got != wantSeries[f.ID] {
			t.Errorf("%s has %d series, want %d", f.ID, got, wantSeries[f.ID])
		}
		if f.Title == "" || f.XLabel == "" || f.YLabel == "" {
			t.Errorf("%s missing labels", f.ID)
		}
		for _, s := range f.Series {
			if err := s.Config.Validate(); err != nil {
				t.Errorf("%s / %s: invalid config: %v", f.ID, s.Label, err)
			}
		}
	}
	studies := AllStudies(FullScale)
	if len(studies) != 15 {
		t.Errorf("got %d studies, want 15 (7 figures + scaling + combined + sharded-response + 5 negative)", len(studies))
	}
	seen := make(map[string]bool, len(studies))
	for _, f := range studies {
		if seen[f.ID] {
			t.Errorf("duplicate study id %s", f.ID)
		}
		seen[f.ID] = true
	}
}

func TestScaleShrinksPopulation(t *testing.T) {
	t.Parallel()

	fig := Figure1(testScale)
	for _, s := range fig.Series {
		if s.Config.Population != 100 {
			t.Errorf("%s population = %d, want 100", s.Label, s.Config.Population)
		}
	}
}

// runFigure runs fig as a one-figure sweep at opts.Parallelism through
// cache (nil runs uncached) and fails the test on any error.
func runFigure(t testing.TB, fig Figure, opts core.Options, cache *ReplicationCache) *FigureResult {
	t.Helper()
	sr, err := RunSweep(context.Background(), []Figure{fig}, opts, SweepOptions{Jobs: opts.Parallelism, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return sr.Figures[0]
}

func TestSweepOneFigureSmoke(t *testing.T) {
	t.Parallel()

	fr := runFigure(t, Figure6(testScale), testOpts, nil)
	if len(fr.Series) != 4 {
		t.Fatalf("got %d series results", len(fr.Series))
	}
	for _, s := range fr.Series {
		if s.Band.Len() != 41 {
			t.Errorf("%s band has %d points, want 41", s.Label, s.Band.Len())
		}
		if s.FinalMean < 1 {
			t.Errorf("%s has no infections", s.Label)
		}
	}
	if _, ok := fr.SeriesByLabel("Baseline"); !ok {
		t.Error("baseline series missing")
	}
	if _, ok := fr.SeriesByLabel("nope"); ok {
		t.Error("phantom series found")
	}
}

func TestSweepRejectsEmptyFigure(t *testing.T) {
	t.Parallel()

	if _, err := RunSweep(context.Background(), []Figure{{ID: "empty"}}, testOpts, SweepOptions{}); err == nil {
		t.Error("empty figure accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	t.Parallel()

	fr := runFigure(t, Figure7(testScale), testOpts, nil)
	var sb strings.Builder
	if err := fr.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 42 { // header + 41 grid rows
		t.Errorf("csv has %d lines, want 42", len(lines))
	}
	if !strings.Contains(lines[0], "Baseline mean") || !strings.Contains(lines[0], "10 Messages ci95") {
		t.Errorf("csv header wrong: %s", lines[0])
	}
}

func TestRenderASCIIAndSummary(t *testing.T) {
	t.Parallel()

	fr := runFigure(t, Figure6(testScale), testOpts, nil)
	chart, err := fr.RenderASCII()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "Figure 6") {
		t.Errorf("chart missing title:\n%s", chart)
	}
	sum := fr.Summary()
	if !strings.Contains(sum, "Baseline") || !strings.Contains(sum, "final mean") {
		t.Errorf("summary malformed:\n%s", sum)
	}
}

// TestEveryClaimStudyIsWired: the studies carrying claim rows are exactly
// the figures, extensions and negative results with in-text claims, and
// each is live: evaluating it on a result without series reports
// ErrSeriesMissing (which mvfigures prints as a failing check and mvreport
// returns).
func TestEveryClaimStudyIsWired(t *testing.T) {
	t.Parallel()

	want := map[string]bool{
		"figure1": true, "figure2": true, "figure3": true, "figure4": true,
		"figure5": true, "figure6": true, "figure7": true,
		"scaling": true, "combined": true,
		"neg-scan-v3": true, "neg-monitor-slow": true,
		"neg-blacklist-v2": true, "neg-blacklist-v1": true,
		"blacklist-equivalence": true,
	}
	wired := 0
	for _, fig := range AllStudies(testScale) {
		if has := fig.Claims != nil; has != want[fig.ID] {
			t.Errorf("%s: has claim rows = %v, want %v", fig.ID, has, want[fig.ID])
		}
		if fig.Claims == nil {
			continue
		}
		wired++
		if _, err := EvaluateClaims(&FigureResult{Figure: fig}); !errors.Is(err, ErrSeriesMissing) {
			t.Errorf("%s: evaluating a result without series gave %v, want ErrSeriesMissing", fig.ID, err)
		}
	}
	if wired != len(want) {
		t.Errorf("%d studies carry claim rows, want %d", wired, len(want))
	}
}

// TestClaimRowsResolve checks every claim row without simulating: its
// labels name series of its own study, at full and reduced scale, and its
// statistic, level and bound are well formed.
func TestClaimRowsResolve(t *testing.T) {
	t.Parallel()

	for _, sc := range []Scale{FullScale, {Factor: 10}} {
		figs := append(AllStudies(sc), SensitivityStudies(sc, virus.Virus3())...)
		for _, fig := range figs {
			labels := make(map[string]bool, len(fig.Series))
			for _, s := range fig.Series {
				labels[s.Label] = true
			}
			for _, c := range fig.Claims {
				where := fmt.Sprintf("scale %d / %s / %s", sc.Factor, fig.ID, c.ID)
				if c.ID == "" || c.Statement == "" || len(c.A) == 0 || len(c.Bound) == 0 {
					t.Errorf("%s: incomplete row %+v", where, c)
				}
				for _, l := range c.A {
					if !labels[l] {
						t.Errorf("%s: A label %q is not a series of the study", where, l)
					}
				}
				switch c.Stat {
				case FinalRatio, FinalDiff, Agreement, ReachRatio:
					if !labels[c.B] {
						t.Errorf("%s: B label %q is not a series of the study", where, c.B)
					}
				case PlateauDev:
					if c.B != "" {
						t.Errorf("%s: plateau row names a B series %q", where, c.B)
					}
				default:
					t.Errorf("%s: unknown statistic %d", where, c.Stat)
				}
				if (c.Stat == ReachRatio || c.Stat == PlateauDev) != (c.Level > 0) {
					t.Errorf("%s: level %v does not fit statistic %d", where, c.Level, c.Stat)
				}
				for _, cond := range c.Bound {
					switch cond.Op {
					case "<", "<=", ">", ">=":
					default:
						t.Errorf("%s: unknown operator %q", where, cond.Op)
					}
				}
			}
		}
	}
}

func TestCheckString(t *testing.T) {
	t.Parallel()

	pass := Check{ID: "T", Statement: "s", Measured: "m", Pass: true}
	if !strings.Contains(pass.String(), "ok") {
		t.Error("passing check not marked ok")
	}
	fail := Check{ID: "T", Statement: "s", Measured: "m"}
	if !strings.Contains(fail.String(), "FAIL") {
		t.Error("failing check not marked FAIL")
	}
}
