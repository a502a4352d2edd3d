package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/virus"
)

func TestSensitivityDefinitions(t *testing.T) {
	t.Parallel()

	studies := SensitivityStudies(FullScale, virus.Virus3())
	if len(studies) != 5 {
		t.Fatalf("got %d sensitivity studies, want 5", len(studies))
	}
	for _, f := range studies {
		if len(f.Series) < 3 {
			t.Errorf("%s has only %d series", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if err := s.Config.Validate(); err != nil {
				t.Errorf("%s / %s: %v", f.ID, s.Label, err)
			}
		}
	}
}

func TestSensitivitySmokeScaled(t *testing.T) {
	t.Parallel()

	fig := SensitivityReadDelay(testScale, virus.Virus3())
	fr := runFigure(t, fig, testOpts, nil)
	for _, s := range fr.Series {
		if s.FinalMean < 1 {
			t.Errorf("%s: no infections", s.Label)
		}
	}
}

// TestPaperClaimsSensitivity verifies at full scale that the Virus 3
// plateau (the consent-model prediction of 320) is invariant under the
// substituted timing parameters, the core justification in DESIGN.md for
// the calibrated defaults.
func TestPaperClaimsSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	opts := core.Options{Replications: 3, GridPoints: 40}
	for _, fig := range []Figure{
		SensitivityReadDelay(FullScale, virus.Virus3()),
		SensitivityDeliveryDelay(FullScale, virus.Virus3()),
		SensitivityTopology(FullScale, virus.Virus3()),
		SensitivityDetectThreshold(FullScale, virus.Virus3()),
		SensitivityCongestion(FullScale, virus.Virus3()),
	} {
		fr := runFigure(t, fig, opts, nil)
		for _, c := range CheckPlateauInvariance(fr, 320, 0.12) {
			if !c.Pass {
				t.Errorf("%s", c)
			} else {
				t.Logf("%s", c)
			}
		}
	}
}
