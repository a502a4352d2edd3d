package experiment

import "testing"

// negativeStudies returns every negative-result and equivalence study:
// the rows of studyTable after the sharded-response study.
func negativeStudies(s Scale) []Figure {
	var figs []Figure
	after := false
	for _, row := range studyTable {
		if after {
			figs = append(figs, row.build(s))
		}
		after = after || row.id == "sharded-response"
	}
	return figs
}

func TestNegativeStudyDefinitions(t *testing.T) {
	t.Parallel()

	studies := negativeStudies(FullScale)
	if len(studies) != 5 {
		t.Fatalf("got %d negative studies, want 5", len(studies))
	}
	for _, f := range studies {
		if len(f.Series) < 2 {
			t.Errorf("%s has %d series", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if err := s.Config.Validate(); err != nil {
				t.Errorf("%s / %s: %v", f.ID, s.Label, err)
			}
		}
	}
}
