package experiment

import (
	"testing"

	"repro/internal/core"
)

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

func TestNegativeChecksNeedSeries(t *testing.T) {
	t.Parallel()

	empty := &FigureResult{Figure: Figure{ID: "x"}}
	if _, err := CheckScanVsVirus3(empty); err == nil {
		t.Error("scan-vs-v3 without series accepted")
	}
	if _, err := CheckMonitorVsSlowViruses(empty); err == nil {
		t.Error("monitor-vs-slow without series accepted")
	}
	if _, err := CheckBlacklistVsVirus2(empty); err == nil {
		t.Error("blacklist-vs-v2 without series accepted")
	}
	if _, err := CheckBlacklistVsVirus1(empty); err == nil {
		t.Error("blacklist-vs-v1 without series accepted")
	}
	if _, err := CheckBlacklistEquivalence(empty); err == nil {
		t.Error("blacklist-equivalence without series accepted")
	}
}

// TestPaperClaimsNegativeResults verifies the paper's ineffectiveness
// statements at full scale.
func TestPaperClaimsNegativeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	opts := core.Options{Replications: 4, GridPoints: 60}
	type study struct {
		fig   Figure
		check func(*FigureResult) ([]Check, error)
	}
	for _, s := range []study{
		{ScanVsVirus3Study(FullScale), CheckScanVsVirus3},
		{MonitorVsSlowVirusesStudy(FullScale), CheckMonitorVsSlowViruses},
		{BlacklistVsVirus2Study(FullScale), CheckBlacklistVsVirus2},
		{BlacklistVsVirus1Study(FullScale), CheckBlacklistVsVirus1},
		{BlacklistEquivalenceStudy(FullScale), CheckBlacklistEquivalence},
	} {
		fr := runFigure(t, s.fig, opts, nil)
		checks, err := s.check(fr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range checks {
			if !c.Pass {
				t.Errorf("%s", c)
			} else {
				t.Logf("%s", c)
			}
		}
	}
}
