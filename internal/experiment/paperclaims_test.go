package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// fullOpts runs the claims at the paper's population with enough
// replications for stable orderings while staying CI-friendly.
var fullOpts = core.Options{Replications: 4, GridPoints: 100}

// TestPaperClaimsScan verifies the Figure 2 statements at full scale.
func TestPaperClaimsScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure2(FullScale), fullOpts, nil)
	checks, cerr := CheckScanClaims(fr)
	assertChecks(t, checks, cerr)
}

// TestPaperClaimsDetector verifies the Figure 3 statements at full scale.
func TestPaperClaimsDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure3(FullScale), fullOpts, nil)
	checks, cerr := CheckDetectorClaims(fr)
	assertChecks(t, checks, cerr)
}

// TestPaperClaimsEducation verifies the Figure 4 statements at full scale.
func TestPaperClaimsEducation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure4(FullScale), fullOpts, nil)
	checks, cerr := CheckEducationClaims(fr)
	assertChecks(t, checks, cerr)
}

// TestPaperClaimsImmunization verifies the Figure 5 statements at full
// scale.
func TestPaperClaimsImmunization(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure5(FullScale), fullOpts, nil)
	checks, cerr := CheckImmunizationClaims(fr)
	assertChecks(t, checks, cerr)
}

// TestPaperClaimsMonitoring verifies the Figure 6 statements at full scale.
func TestPaperClaimsMonitoring(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure6(FullScale), fullOpts, nil)
	checks, cerr := CheckMonitoringClaims(fr)
	assertChecks(t, checks, cerr)
}

// TestPaperClaimsBlacklist verifies the Figure 7 statements at full scale.
func TestPaperClaimsBlacklist(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure7(FullScale), fullOpts, nil)
	checks, cerr := CheckBlacklistClaims(fr)
	assertChecks(t, checks, cerr)
}

// TestPaperClaimsEducationQuarter verifies the Section 5.2 text statement
// that a 0.10 eventual acceptance produces a final infection level at
// one-quarter the baseline.
func TestPaperClaimsEducationQuarter(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fig := Figure{
		ID:     "education-quarter",
		Title:  "Education at 0.10 eventual acceptance (Virus 3)",
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	base := FullScale.paperConfig(virusByName(t, "Virus 3"))
	educated := FullScale.paperConfig(virusByName(t, "Virus 3"))
	educated.Responses = []mms.ResponseFactory{response.NewEducation(0.10)}
	fig.Series = []Series{
		{Label: "Baseline", Config: base},
		{Label: "Educated", Config: educated},
	}
	fr := runFigure(t, fig, fullOpts, nil)
	b, _ := fr.SeriesByLabel("Baseline")
	e, _ := fr.SeriesByLabel("Educated")
	r := e.FinalMean / b.FinalMean
	if r < 0.18 || r > 0.32 {
		t.Errorf("0.10 acceptance level = %.1f vs baseline %.1f (%.0f%%), want ~25%%",
			e.FinalMean, b.FinalMean, 100*r)
	}
}

func virusByName(t *testing.T, name string) virus.Config {
	t.Helper()
	for _, v := range virus.Scenarios() {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("unknown virus %q", name)
	return virus.Config{}
}

// TestPaperClaimsBaselinePlateaus verifies the Section 5.1 statement: all
// four baselines plateau at ~320 infected (800 susceptible x 0.40 eventual
// acceptance).
func TestPaperClaimsBaselinePlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, Figure1(FullScale), fullOpts, nil)
	for _, s := range fr.Series {
		if s.FinalMean < 280 || s.FinalMean > 360 {
			t.Errorf("%s plateau = %.1f, want ~320", s.Label, s.FinalMean)
		}
	}
}

// TestPaperClaimsScaling verifies the Section 5.3 statement: a 2,000-phone
// population doubles the plateau without changing the picture.
func TestPaperClaimsScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, ScalingStudy(FullScale), core.Options{Replications: 3, GridPoints: 50}, nil)
	small, ok := fr.SeriesByLabel("1000 phones")
	if !ok {
		t.Fatal("1000-phone series missing")
	}
	large, ok := fr.SeriesByLabel("2000 phones")
	if !ok {
		t.Fatal("2000-phone series missing")
	}
	ratio := large.FinalMean / small.FinalMean
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2000-phone plateau ratio = %.2f, want ~2.0 (%.1f vs %.1f)",
			ratio, large.FinalMean, small.FinalMean)
	}
}

// TestPaperClaimsCombined verifies the Section 6 extension: monitoring plus
// scan contains Virus 3 more than either alone.
func TestPaperClaimsCombined(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	fr := runFigure(t, CombinedStudy(FullScale), fullOpts, nil)
	base, ok := fr.SeriesByLabel("Baseline")
	if !ok {
		t.Fatal("baseline missing")
	}
	both, ok := fr.SeriesByLabel("Monitor + Scan")
	if !ok {
		t.Fatal("combined series missing")
	}
	scanOnly, ok := fr.SeriesByLabel("Scan only (6h)")
	if !ok {
		t.Fatal("scan-only series missing")
	}
	if both.FinalMean >= base.FinalMean {
		t.Errorf("combined (%.1f) does not beat baseline (%.1f)", both.FinalMean, base.FinalMean)
	}
	if both.FinalMean >= scanOnly.FinalMean {
		t.Errorf("combined (%.1f) does not beat scan alone (%.1f): monitoring should buy the scan time",
			both.FinalMean, scanOnly.FinalMean)
	}
}

func assertChecks(t *testing.T, checks []Check, err error) {
	t.Helper()
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
