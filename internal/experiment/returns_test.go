package experiment

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// kneeResult hand-builds an executed returns figure whose baseline and
// levels end at the given mean finals, so the knee rules are checked
// without simulating.
func kneeResult(finals ...float64) *FigureResult {
	sw := Sweep{Name: "hand-built"}
	for i := 1; i < len(finals); i++ {
		sw.Points = append(sw.Points, SweepPoint{Strength: float64(i), Label: fmt.Sprintf("level %d", i)})
	}
	fr := &FigureResult{Figure: sw.Figure()}
	for i, s := range fr.Figure.Series {
		fr.Series = append(fr.Series, SeriesResult{Label: s.Label, FinalMean: finals[i]})
	}
	return fr
}

// evaluateSweeps runs the sweeps as one RunSweep and evaluates each knee.
func evaluateSweeps(t *testing.T, kneeFraction float64, opts core.Options, sweeps ...Sweep) []*ReturnsResult {
	t.Helper()
	figs := make([]Figure, len(sweeps))
	for i, sw := range sweeps {
		figs[i] = sw.Figure()
	}
	sr, err := RunSweep(context.Background(), figs, opts, SweepOptions{Jobs: opts.Parallelism})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*ReturnsResult, len(sweeps))
	for i, fr := range sr.Figures {
		if out[i], err = EvaluateKnee(fr, kneeFraction); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestReturnsValidation(t *testing.T) {
	t.Parallel()

	if _, err := EvaluateKnee(kneeResult(100, 50), 0.05); err == nil {
		t.Error("sweep with one level accepted")
	}
	if _, err := EvaluateKnee(kneeResult(100, 50, 25), 0); err == nil {
		t.Error("zero knee fraction accepted")
	}
	if _, err := EvaluateKnee(kneeResult(100, 50, 25), 1); err == nil {
		t.Error("knee fraction 1 accepted")
	}
}

// TestEvaluateKneeRules pins the knee rules on hand-built results: the
// first level is never the knee, a marginal gain equal to the threshold
// does not qualify, and KneeIndex is -1 when no level qualifies.
func TestEvaluateKneeRules(t *testing.T) {
	t.Parallel()

	cases := []struct {
		name     string
		finals   []float64 // baseline first
		fraction float64
		want     int
	}{
		// Level 0 gains only 1 < 10, but the weakest level has nothing to
		// diminish from; level 2's gain of 5 is the knee.
		{"first level never the knee", []float64{100, 99, 50, 45}, 0.1, 2},
		// Level 1 gains exactly 25 = 0.25 × 100: not below the threshold.
		{"comparison is strict", []float64{100, 50, 25, 20}, 0.25, 2},
		{"no knee", []float64{100, 80, 50, 10}, 0.25, -1},
	}
	for _, tc := range cases {
		res, err := EvaluateKnee(kneeResult(tc.finals...), tc.fraction)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.KneeIndex != tc.want {
			t.Errorf("%s: KneeIndex = %d, want %d (points %+v)", tc.name, res.KneeIndex, tc.want, res.Points)
		}
		if _, ok := res.Knee(); ok != (tc.want >= 0) {
			t.Errorf("%s: Knee() ok = %v with KneeIndex %d", tc.name, ok, res.KneeIndex)
		}
		if res.Baseline != tc.finals[0] || len(res.Points) != len(tc.finals)-1 {
			t.Errorf("%s: baseline %v with %d points, want %v with %d",
				tc.name, res.Baseline, len(res.Points), tc.finals[0], len(tc.finals)-1)
		}
	}

	fr := kneeResult(100, 99, 50, 45)
	fr.Series = append(fr.Series[:2], fr.Series[3:]...)
	if _, err := EvaluateKnee(fr, 0.1); !errors.Is(err, ErrSeriesMissing) {
		t.Errorf("result missing a level: got %v, want ErrSeriesMissing", err)
	}
}

func TestReturnsSweepDefinitions(t *testing.T) {
	t.Parallel()

	for _, sweep := range []Sweep{
		ScanReturnsSweep(FullScale),
		DetectorReturnsSweep(FullScale),
		MonitorReturnsSweep(FullScale),
		ImmunizerReturnsSweep(FullScale),
	} {
		if len(sweep.Points) < 3 {
			t.Errorf("%s has only %d levels", sweep.Name, len(sweep.Points))
		}
		if err := sweep.Baseline.Validate(); err != nil {
			t.Errorf("%s baseline: %v", sweep.Name, err)
		}
		prev := -1.0
		for _, p := range sweep.Points {
			if err := p.Config.Validate(); err != nil {
				t.Errorf("%s / %s: %v", sweep.Name, p.Label, err)
			}
			if p.Strength <= prev {
				t.Errorf("%s: strengths not increasing at %s", sweep.Name, p.Label)
			}
			prev = p.Strength
		}
		// Sweep.Figure runs the baseline first, then the levels in order.
		fig := sweep.Figure()
		if len(fig.Series) != len(sweep.Points)+1 || fig.Series[0].Label != "Baseline" {
			t.Fatalf("%s: figure series %d (first %q), want Baseline then %d levels",
				sweep.Name, len(fig.Series), fig.Series[0].Label, len(sweep.Points))
		}
		for i, p := range sweep.Points {
			if fig.Series[i+1].Label != p.Label {
				t.Errorf("%s: figure series %d is %q, want %q", sweep.Name, i+1, fig.Series[i+1].Label, p.Label)
			}
		}
	}
}

func TestReturnsKneeOnScaledScan(t *testing.T) {
	t.Parallel()

	res := evaluateSweeps(t, 0.05, testOpts, ScanReturnsSweep(testScale))[0]
	if len(res.Points) != 6 {
		t.Fatalf("got %d points", len(res.Points))
	}
	if res.Baseline <= 0 {
		t.Fatal("baseline has no infections")
	}
	// Prevention must be (weakly) increasing with strength, modulo noise:
	// the strongest level must prevent at least as much as the weakest.
	first := res.Points[0].Prevented
	last := res.Points[len(res.Points)-1].Prevented
	if last < first {
		t.Errorf("prevention decreased with strength: %v -> %v", first, last)
	}
	// Knee accessor agrees with index.
	if pt, ok := res.Knee(); ok {
		if res.Points[res.KneeIndex] != pt {
			t.Error("Knee() disagrees with KneeIndex")
		}
	}
}

// TestPaperClaimsDiminishingReturns verifies at full scale that every
// mechanism sweep exhibits a knee — the Section 5.3 observation that
// stronger variants eventually stop paying.
func TestPaperClaimsDiminishingReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	opts := core.Options{Replications: 3, GridPoints: 40}
	for _, res := range evaluateSweeps(t, 0.08, opts,
		ScanReturnsSweep(FullScale),
		MonitorReturnsSweep(FullScale),
		ImmunizerReturnsSweep(FullScale),
	) {
		if _, ok := res.Knee(); !ok {
			t.Errorf("%s: no point of diminishing returns found in sweep", res.Name)
			for _, p := range res.Points {
				t.Logf("  %-16s final=%7.1f prevented=%7.1f marginal=%7.1f",
					p.Label, p.Final, p.Prevented, p.MarginalGain)
			}
		} else {
			knee, _ := res.Knee()
			t.Logf("%s: knee at %s (marginal gain %.1f of baseline %.1f)",
				res.Name, knee.Label, knee.MarginalGain, res.Baseline)
		}
	}
}
