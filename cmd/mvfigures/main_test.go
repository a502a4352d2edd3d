package main

import (
	"testing"

	"repro/internal/experiment"
)

func TestClaimsForUnknownFigure(t *testing.T) {
	t.Parallel()

	fr := &experiment.FigureResult{Figure: experiment.Figure{ID: "figure1"}}
	if checks := claimsFor(fr); checks != nil {
		t.Errorf("figure1 (no claims) returned %v", checks)
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

	// Each study with a claim check must resolve through claimsFor
	// without returning nil for the wrong reason; IDs with checks are
	// exactly these.
	withClaims := map[string]bool{
		"figure2": true, "figure3": true, "figure4": true,
		"figure5": true, "figure6": true, "figure7": true,
		"neg-scan-v3": true, "neg-monitor-slow": true,
		"neg-blacklist-v2": true, "neg-blacklist-v1": true,
		"blacklist-equivalence": true,
	}
	for _, fig := range experiment.AllStudies(experiment.Scale{Factor: 10}) {
		fr := &experiment.FigureResult{Figure: fig}
		checks := claimsFor(fr)
		if withClaims[fig.ID] && checks == nil {
			t.Errorf("%s has a claim check but claimsFor returned nil", fig.ID)
		}
		if !withClaims[fig.ID] && checks != nil {
			t.Errorf("%s has no claim check but claimsFor returned %v", fig.ID, checks)
		}
	}
}
