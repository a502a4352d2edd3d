package experiment

import (
	"errors"
	"testing"
	"time"

	"repro/internal/curve"
	"repro/internal/virus"
)

// rampSeries builds a SeriesResult whose mean curve rises linearly from 0
// to final over rise hours and then stays flat, sampled hourly to 300
// hours.
func rampSeries(t *testing.T, label string, final float64, rise int) SeriesResult {
	t.Helper()
	c := curve.New(0)
	for h := 1; h <= rise; h++ {
		if err := c.Append(time.Duration(h)*time.Hour, final*float64(h)/float64(rise)); err != nil {
			t.Fatal(err)
		}
	}
	band, err := curve.Aggregate([]*curve.Curve{c}, 300*time.Hour, 300)
	if err != nil {
		t.Fatal(err)
	}
	return SeriesResult{Label: label, Band: band, FinalMean: final}
}

// claimCase is one synthetic result for a study's claim rows: the final
// of each series present (its curve rises over 100 hours unless rise
// names another time) and the verdict wanted per claim ID. IDs left out
// of want are not asserted; measured pins a row's Measured text.
type claimCase struct {
	name     string
	finals   map[string]float64
	rise     map[string]int
	want     map[string]bool
	measured map[string]string
}

// runClaimCases judges fig's own claim rows on each case's synthetic
// series, in fig's series order.
func runClaimCases(t *testing.T, fig Figure, cases []claimCase) {
	t.Helper()
	for _, tc := range cases {
		fr := &FigureResult{Figure: fig}
		for _, s := range fig.Series {
			if final, ok := tc.finals[s.Label]; ok {
				rise := 100
				if r, ok := tc.rise[s.Label]; ok {
					rise = r
				}
				fr.Series = append(fr.Series, rampSeries(t, s.Label, final, rise))
			}
		}
		checks, err := EvaluateClaims(fr)
		if err != nil {
			t.Errorf("%s / %s: %v", fig.ID, tc.name, err)
			continue
		}
		seen := make(map[string]bool, len(checks))
		for _, c := range checks {
			seen[c.ID] = true
			if want, ok := tc.want[c.ID]; ok && c.Pass != want {
				t.Errorf("%s / %s: %s pass = %v, want %v (%s)", fig.ID, tc.name, c.ID, c.Pass, want, c.Measured)
			}
			if want, ok := tc.measured[c.ID]; ok && c.Measured != want {
				t.Errorf("%s / %s: %s measured %q, want %q", fig.ID, tc.name, c.ID, c.Measured, want)
			}
		}
		for id := range tc.want {
			if !seen[id] {
				t.Errorf("%s / %s: no row %s", fig.ID, tc.name, id)
			}
		}
	}
}

// scanFinals is Figure 2 with the given delay finals against a 320
// baseline.
func scanFinals(d6, d12, d24 float64) map[string]float64 {
	return map[string]float64{"Baseline": 320, "6-Hour Delay": d6, "12-Hour Delay": d12, "24-Hour Delay": d24}
}

func TestCheckScanClaimsLogic(t *testing.T) {
	t.Parallel()

	runClaimCases(t, Figure2(FullScale), []claimCase{
		{name: "paper-shaped", finals: scanFinals(16, 40, 80),
			want: map[string]bool{"C1a": true, "C1b": true, "C1c": true}},
		{name: "useless scan", finals: scanFinals(320, 320, 320),
			want: map[string]bool{"C1a": false, "C1b": false, "C1c": false}},
		{name: "C1a at 20% fails", finals: scanFinals(64, 70, 80), want: map[string]bool{"C1a": false}},
		{name: "C1b at 55% fails", finals: scanFinals(16, 40, 176), want: map[string]bool{"C1b": false}},
		{name: "C1c equal delays hold", finals: scanFinals(40, 40, 80), want: map[string]bool{"C1c": true}},
		{name: "C1c 24h at baseline fails", finals: scanFinals(16, 40, 320), want: map[string]bool{"C1c": false}},
		{name: "C1c out of order fails", finals: scanFinals(50, 40, 80), want: map[string]bool{"C1c": false}},
	})
}

func TestCheckDetectorClaimsLogic(t *testing.T) {
	t.Parallel()

	// Baseline reaches 42% of 100 at 42h, so a detector reaching it at 84h
	// is exactly the 2x bound.
	runClaimCases(t, Figure3(FullScale), []claimCase{
		{name: "contained", finals: map[string]float64{"Baseline": 320, "0.95 Accuracy": 100},
			want:     map[string]bool{"C2": true},
			measured: map[string]string{"C2": "level 134: 0.95 Accuracy never (contained) vs Baseline at 42h0m0s"}},
		{name: "tracking baseline", finals: map[string]float64{"Baseline": 320, "0.95 Accuracy": 320},
			want: map[string]bool{"C2": false}},
		{name: "2x at bound holds", finals: map[string]float64{"Baseline": 100, "0.95 Accuracy": 100},
			rise: map[string]int{"0.95 Accuracy": 200},
			want: map[string]bool{"C2": true}, measured: map[string]string{
				"C2": "level 42: 0.95 Accuracy at 84h0m0s (2.0x) vs Baseline at 42h0m0s"}},
		{name: "baseline never reaches", finals: map[string]float64{"Baseline": 100, "0.95 Accuracy": 100},
			rise: map[string]int{"Baseline": 1000}, want: map[string]bool{"C2": false}},
	})
}

func TestCheckEducationClaimsLogic(t *testing.T) {
	t.Parallel()

	education := func(educated float64) map[string]float64 {
		finals := make(map[string]float64, 8)
		for _, v := range virus.Scenarios() {
			finals[v.Name] = 320
			finals[v.Name+" User Ed"] = educated
		}
		return finals
	}
	all := func(pass bool) map[string]bool {
		return map[string]bool{"C3-1": pass, "C3-2": pass, "C3-3": pass, "C3-4": pass}
	}
	runClaimCases(t, Figure4(FullScale), []claimCase{
		{name: "perfect halving", finals: education(160), want: all(true)},
		{name: "30% at bound fails", finals: education(96), want: all(false)},
		{name: "70% at bound fails", finals: education(224), want: all(false)},
	})
	quarter := func(educated float64) map[string]float64 {
		return map[string]float64{"Baseline": 100, "Educated": educated}
	}
	runClaimCases(t, educationQuarter(FullScale), []claimCase{
		{name: "quarter", finals: quarter(25), want: map[string]bool{"C3q": true}},
		{name: "18% at bound holds", finals: quarter(18), want: map[string]bool{"C3q": true}},
		{name: "32% at bound holds", finals: quarter(32), want: map[string]bool{"C3q": true}},
		{name: "half fails", finals: quarter(50), want: map[string]bool{"C3q": false}},
	})
}

func TestCheckImmunizationClaimsLogic(t *testing.T) {
	t.Parallel()

	immunization := func(fast, slow, lateFast float64) map[string]float64 {
		return map[string]float64{
			"Baseline": 320, "Hours 24-25": fast, "Hours 24-48": slow, "Hours 24-30": 45,
			"Hours 48-49": lateFast, "Hours 48-72": 180, "Hours 48-54": 150,
		}
	}
	runClaimCases(t, Figure5(FullScale), []claimCase{
		{name: "paper-shaped", finals: immunization(40, 64, 140),
			want: map[string]bool{"C4a": true, "C4b": true, "C4c": true}},
		{name: "C4a +15% at bound fails", finals: immunization(40, 46, 140), want: map[string]bool{"C4a": false}},
		{name: "C4b equal development fails", finals: immunization(40, 64, 40), want: map[string]bool{"C4b": false}},
		{name: "C4c one variant at baseline fails", finals: immunization(40, 64, 320), want: map[string]bool{"C4c": false}},
	})
}

func TestCheckMonitoringClaimsLogic(t *testing.T) {
	t.Parallel()

	runClaimCases(t, Figure6(FullScale), []claimCase{
		{name: "contained", finals: map[string]float64{"Baseline": 320, "15-Minute Wait": 120, "60-Minute Wait": 10},
			want:     map[string]bool{"C5a": true, "C5b": true},
			measured: map[string]string{"C5a": "level 150: 15-Minute Wait never (contained) vs Baseline at 47h0m0s"}},
		// Baseline reaches 47 at 47h; the monitored curve at 141h is 3x.
		{name: "C5a 3x at bound holds", finals: map[string]float64{"Baseline": 100, "15-Minute Wait": 100, "60-Minute Wait": 10},
			rise: map[string]int{"15-Minute Wait": 300}, want: map[string]bool{"C5a": true}},
		{name: "C5a tracking baseline fails", finals: map[string]float64{"Baseline": 100, "15-Minute Wait": 100, "60-Minute Wait": 10},
			want: map[string]bool{"C5a": false}},
		{name: "C5b one phone over holds", finals: map[string]float64{"Baseline": 320, "15-Minute Wait": 10, "60-Minute Wait": 11},
			want: map[string]bool{"C5b": true}},
		{name: "C5b two phones over fails", finals: map[string]float64{"Baseline": 320, "15-Minute Wait": 10, "60-Minute Wait": 12},
			want: map[string]bool{"C5b": false}},
	})
}

func TestCheckBlacklistClaimsLogic(t *testing.T) {
	t.Parallel()

	blacklist := func(t10, t40 float64) map[string]float64 {
		return map[string]float64{"Baseline": 320, "10 Messages": t10, "40 Messages": t40}
	}
	runClaimCases(t, Figure7(FullScale), []claimCase{
		{name: "paper-shaped", finals: blacklist(5, 230), want: map[string]bool{"C6a": true, "C6b": true}},
		{name: "C6a 40 at baseline fails", finals: blacklist(5, 320), want: map[string]bool{"C6a": false}},
		{name: "C6b one phone over holds", finals: blacklist(101, 100), want: map[string]bool{"C6b": true}},
		{name: "C6b two phones over fails", finals: blacklist(102, 100), want: map[string]bool{"C6b": false}},
	})
}

func TestNegativeChecksLogic(t *testing.T) {
	t.Parallel()

	scan := func(d6 float64) map[string]float64 {
		return map[string]float64{"Baseline": 320, "6-Hour Delay": d6, "12-Hour Delay": 318}
	}
	monitor := func(monitored float64) map[string]float64 {
		return map[string]float64{
			"Virus 1": 320, "Virus 1 Monitored": monitored,
			"Virus 2": 320, "Virus 2 Monitored": monitored,
			"Virus 4": 320, "Virus 4 Monitored": monitored,
		}
	}
	blacklist := func(t10, t40 float64) map[string]float64 {
		return map[string]float64{"Baseline": 320, "10 Messages": t10, "40 Messages": t40}
	}
	equivalence := func(random, contacts float64) map[string]float64 {
		return map[string]float64{"Random @ threshold 30": random, "Contacts @ threshold 10": contacts}
	}
	allN2 := func(pass bool) map[string]bool { return map[string]bool{"N2-1": pass, "N2-2": pass, "N2-4": pass} }

	runClaimCases(t, ScanVsVirus3Study(FullScale), []claimCase{
		{name: "ineffectual", finals: scan(310), want: map[string]bool{"N1": true}},
		{name: "60% at bound fails", finals: scan(192), want: map[string]bool{"N1": false}},
	})
	runClaimCases(t, MonitorVsSlowVirusesStudy(FullScale), []claimCase{
		{name: "ineffectual", finals: monitor(318), want: allN2(true)},
		{name: "70% at bound fails", finals: monitor(224), want: allN2(false)},
	})
	runClaimCases(t, BlacklistVsVirus2Study(FullScale), []claimCase{
		{name: "ineffective", finals: blacklist(318, 319), want: map[string]bool{"N3": true}},
		{name: "60% at bound fails", finals: blacklist(192, 319), want: map[string]bool{"N3": false}},
	})
	runClaimCases(t, BlacklistVsVirus1Study(FullScale), []claimCase{
		{name: "60% containment", finals: blacklist(190, 315), want: map[string]bool{"N4a": true, "N4b": true}},
		{name: "35% at bound fails", finals: blacklist(112, 315), want: map[string]bool{"N4a": false}},
		{name: "85% at bound fails", finals: blacklist(272, 315), want: map[string]bool{"N4a": false}},
		{name: "80% at bound fails", finals: blacklist(190, 256), want: map[string]bool{"N4b": false}},
	})
	runClaimCases(t, BlacklistEquivalenceStudy(FullScale), []claimCase{
		{name: "near-equal", finals: equivalence(180, 150), want: map[string]bool{"N5": true}},
		{name: "degenerate zero pair", finals: equivalence(0, 0), want: map[string]bool{"N5": true}},
		{name: "45% at bound fails", finals: equivalence(200, 90), want: map[string]bool{"N5": false}},
		{name: "agreement is symmetric", finals: equivalence(90, 200), want: map[string]bool{"N5": false}},
	})
}

func TestScalingAndCombinedClaimsLogic(t *testing.T) {
	t.Parallel()

	scaling := func(large float64) map[string]float64 {
		return map[string]float64{"1000 phones": 100, "2000 phones": large}
	}
	runClaimCases(t, ScalingStudy(FullScale), []claimCase{
		{name: "doubled", finals: scaling(200), want: map[string]bool{"SC": true}},
		{name: "1.6x at bound holds", finals: scaling(160), want: map[string]bool{"SC": true}},
		{name: "2.4x at bound holds", finals: scaling(240), want: map[string]bool{"SC": true}},
		{name: "unchanged fails", finals: scaling(100), want: map[string]bool{"SC": false}},
	})
	combined := func(scan, both float64) map[string]float64 {
		return map[string]float64{"Baseline": 320, "Scan only (6h)": scan, "Monitor only (15m)": 200, "Monitor + Scan": both}
	}
	runClaimCases(t, CombinedStudy(FullScale), []claimCase{
		{name: "combination wins", finals: combined(318, 6), want: map[string]bool{"EXT1": true}},
		{name: "equal to scan alone fails", finals: combined(50, 50), want: map[string]bool{"EXT1": false}},
	})
}

// TestCheckPlateauInvarianceLogic covers the predicted-plateau rows: the
// Figure 1 baselines (within 12.5% of 320) and the sensitivity audit
// (within 12%).
func TestCheckPlateauInvarianceLogic(t *testing.T) {
	t.Parallel()

	baselines := func(v1 float64) map[string]float64 {
		return map[string]float64{"Virus 1": v1, "Virus 2": 320, "Virus 3": 320, "Virus 4": 320}
	}
	runClaimCases(t, Figure1(FullScale), []claimCase{
		{name: "on the prediction", finals: baselines(320), want: map[string]bool{"F1": true}},
		{name: "280 at bound holds", finals: baselines(280), want: map[string]bool{"F1": true}},
		{name: "360 at bound holds", finals: baselines(360), want: map[string]bool{"F1": true}},
		{name: "one baseline off fails", finals: baselines(250), want: map[string]bool{"F1": false}},
	})

	readDelay := SensitivityStudies(FullScale, virus.Virus3())[0]
	fr := &FigureResult{Figure: readDelay, Series: []SeriesResult{
		rampSeries(t, "read mean 10m0s", 320, 100),
		rampSeries(t, "read mean 30m0s", 250, 100), // 22% off
		rampSeries(t, "read mean 2h0m0s", 358.4, 100),
	}}
	checks, err := EvaluateClaims(fr)
	if err != nil {
		t.Fatal(err)
	}
	// 358.4 is 12% off in decimal, the nearest a final gets to the bound.
	if len(checks) != 3 || !checks[0].Pass || checks[1].Pass || !checks[2].Pass {
		t.Fatalf("sensitivity verdicts = %v, want one row per series: pass, fail, pass", checks)
	}
	if want := "read mean 2h0m0s 358.4 (dev 12%) vs predicted 320.0"; checks[2].Measured != want {
		t.Errorf("measured %q, want %q", checks[2].Measured, want)
	}
	// A zero prediction makes every deviation zero.
	fr.Figure.Claims = []Claim{{ID: "z", Stat: PlateauDev, A: []string{"read mean 30m0s"}, Bound: []Cond{{"<=", 0.12}}}}
	if checks, err := EvaluateClaims(fr); err != nil || !checks[0].Pass {
		t.Errorf("zero-predicted plateau: %v, %v", checks, err)
	}
}

// TestClaimEvaluationsNeedSeries pins that a row naming a series the
// result lacks is an error, not a silently narrower check.
func TestClaimEvaluationsNeedSeries(t *testing.T) {
	t.Parallel()

	fig := Figure5(FullScale)
	fr := &FigureResult{Figure: fig}
	for _, s := range fig.Series {
		if s.Label != "Hours 48-72" {
			fr.Series = append(fr.Series, rampSeries(t, s.Label, 100, 100))
		}
	}
	if _, err := EvaluateClaims(fr); !errors.Is(err, ErrSeriesMissing) {
		t.Errorf("Figure 5 without Hours 48-72: got %v, want ErrSeriesMissing", err)
	}
}
