package main

import (
	"testing"

	"repro/internal/experiment"
)

func TestClaimsForUnknownFigure(t *testing.T) {
	t.Parallel()

	fr := &experiment.FigureResult{Figure: experiment.Figure{ID: "figure1"}}
	if checks := claimsFor(fr); checks != nil {
		t.Errorf("figure1 without claim rows returned %v", checks)
	}
	fr = &experiment.FigureResult{Figure: experiment.Figure{ID: "unknown"}}
	if checks := claimsFor(fr); checks != nil {
		t.Errorf("unknown figure returned %v", checks)
	}
}

func TestClaimsForMissingSeriesBecomesFailingCheck(t *testing.T) {
	t.Parallel()

	// A figure with claims but no series must surface the evaluation error
	// as a failing check rather than panicking or hiding it.
	fr := &experiment.FigureResult{Figure: experiment.Figure2(experiment.Scale{Factor: 10})}
	checks := claimsFor(fr)
	if len(checks) != 1 {
		t.Fatalf("got %d checks, want 1 error check", len(checks))
	}
	if checks[0].Pass {
		t.Error("error check marked as pass")
	}
}

func TestEveryClaimFigureIsWired(t *testing.T) {
	t.Parallel()

	// claimsFor evaluates exactly the studies carrying claim rows: on a
	// result without series each of them yields its one failing error
	// check, and every other study yields nothing. Which studies carry
	// rows is pinned in the experiment package.
	wired := 0
	for _, fig := range experiment.AllStudies(experiment.Scale{Factor: 10}) {
		checks := claimsFor(&experiment.FigureResult{Figure: fig})
		if fig.Claims == nil {
			if checks != nil {
				t.Errorf("%s has no claim rows but claimsFor returned %v", fig.ID, checks)
			}
			continue
		}
		wired++
		if len(checks) != 1 || checks[0].Pass || checks[0].ID != fig.ID {
			t.Errorf("%s: claimsFor on a result without series returned %v, want one failing check", fig.ID, checks)
		}
	}
	if wired == 0 {
		t.Error("no study carries claim rows")
	}
}
