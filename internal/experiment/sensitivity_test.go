package experiment

import (
	"testing"

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

	fig := sensitivityReadDelay(testScale, virus.Virus3())
	fr := runFigure(t, fig, testOpts, nil)
	for _, s := range fr.Series {
		if s.FinalMean < 1 {
			t.Errorf("%s: no infections", s.Label)
		}
	}
}
