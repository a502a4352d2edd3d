package experiment

import "testing"

func TestNegativeStudyDefinitions(t *testing.T) {
	t.Parallel()

	studies := NegativeStudies(FullScale)
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
