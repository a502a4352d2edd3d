package experiment

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// The full-scale claim tests: each runs its studies at the paper's
// population, with enough replications for stable orderings while
// staying CI-friendly, and requires every claim row they carry to hold.
var (
	fullOpts        = core.Options{Replications: 4, GridPoints: 100}
	negativeOpts    = core.Options{Replications: 4, GridPoints: 60}
	sensitivityOpts = core.Options{Replications: 3, GridPoints: 40}
	scalingOpts     = core.Options{Replications: 3, GridPoints: 50}
)

func TestPaperClaimsBaselinePlateaus(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure1(FullScale))
}

func TestPaperClaimsScan(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure2(FullScale))
}

func TestPaperClaimsDetector(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure3(FullScale))
}

func TestPaperClaimsEducation(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure4(FullScale))
}

func TestPaperClaimsImmunization(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure5(FullScale))
}

func TestPaperClaimsMonitoring(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure6(FullScale))
}

func TestPaperClaimsBlacklist(t *testing.T) {
	judgeFullScale(t, fullOpts, Figure7(FullScale))
}

func TestPaperClaimsEducationQuarter(t *testing.T) {
	judgeFullScale(t, fullOpts, educationQuarter(FullScale))
}

func TestPaperClaimsCombined(t *testing.T) {
	judgeFullScale(t, fullOpts, CombinedStudy(FullScale))
}

func TestPaperClaimsScaling(t *testing.T) {
	judgeFullScale(t, scalingOpts, ScalingStudy(FullScale))
}

func TestPaperClaimsNegativeResults(t *testing.T) {
	judgeFullScale(t, negativeOpts, negativeStudies(FullScale)...)
}

func TestPaperClaimsSensitivity(t *testing.T) {
	judgeFullScale(t, sensitivityOpts, SensitivityStudies(FullScale, virus.Virus3())...)
}

// judgeFullScale runs figs as one sweep at opts and fails the test on any
// claim row that does not hold. Every study must carry at least one row.
func judgeFullScale(t *testing.T, opts core.Options, figs ...Figure) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale claim check skipped in short mode")
	}
	t.Parallel()

	sr, err := RunSweep(context.Background(), figs, opts, SweepOptions{Cache: NewReplicationCache()})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range sr.Figures {
		checks, err := EvaluateClaims(fr)
		if err != nil {
			t.Fatal(err)
		}
		if len(checks) == 0 {
			t.Errorf("%s carries no claim rows", fr.Figure.ID)
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

// educationQuarter is the Section 5.2 text statement that a 0.10 eventual
// acceptance produces a final infection level at one-quarter the baseline
// (Virus 3). No figure plots it, so only the claim tests run it.
func educationQuarter(s Scale) Figure {
	educated := s.paperConfig(virus.Virus3())
	educated.Responses = []mms.ResponseFactory{response.NewEducation(0.10)}
	return Figure{
		ID:     "education-quarter",
		Title:  "Education at 0.10 eventual acceptance (Virus 3)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Series: []Series{
			{Label: "Baseline", Config: s.paperConfig(virus.Virus3())},
			{Label: "Educated", Config: educated},
		},
		Claims: []Claim{{
			ID:        "C3q",
			Statement: "Education at 0.10 eventual acceptance quarters the Virus 3 plateau",
			Stat:      FinalRatio, A: []string{"Educated"}, B: "Baseline",
			Bound: []Cond{{">=", 0.18}, {"<=", 0.32}},
		}},
	}
}
