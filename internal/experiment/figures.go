// Package experiment defines one runnable experiment per figure of the
// paper's evaluation (Figures 1-7), plus the scaling study mentioned in
// Section 5.3 and the combined-mechanism future-work study from Section 6.
// A harness runs every series of a figure with replications, and reporting
// helpers emit CSV files and terminal charts shaped like the paper's plots.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// Series is one curve of a figure: a label and the scenario that produces
// it.
type Series struct {
	// Label names the curve as in the paper's legend.
	Label string
	// Config is the full scenario.
	Config core.Config
}

// Figure is a reproducible experiment: several series sharing axes.
type Figure struct {
	// ID is the paper's figure number, e.g. "figure1".
	ID string
	// Title matches the paper's caption.
	Title string
	// XLabel and YLabel name the axes (always hours vs infection count).
	XLabel, YLabel string
	// Series are the curves, baseline first where applicable.
	Series []Series
	// Claims are the paper's in-text claims this study's result is
	// judged against (EvaluateClaims); nil for studies without claims.
	// Studies built at any scale may share these rows: treat them as
	// read-only.
	Claims []Claim
}

// Scale shrinks experiments for tests and benchmarks: population and mean
// degree divide by Factor and horizons stay intact. Factor 1 is the paper's
// full size.
type Scale struct {
	// Factor divides the population (1 = paper size).
	Factor int
}

// paperConfig builds the default config for a virus under the scale.
func (s Scale) paperConfig(v virus.Config) core.Config {
	cfg := core.Default(v)
	if s.Factor > 1 {
		cfg.Population /= s.Factor
		cfg.Graph.MeanDegree /= float64(s.Factor)
		if cfg.Graph.MeanDegree < 4 {
			cfg.Graph.MeanDegree = 4
		}
	}
	return cfg
}

// baselinePlateau is the consent-model prediction for an unprotected
// baseline: the paper's 800 susceptible phones x 0.40 eventual acceptance,
// divided by the scale factor.
func (s Scale) baselinePlateau() float64 {
	return 320 / float64(max(s.Factor, 1))
}

// FullScale is the paper's population of 1,000 phones.
var FullScale = Scale{Factor: 1}

// figure1Plateau is the Section 5.1 statement that all four baselines
// plateau together; Figure1 sets the predicted level for its scale.
var figure1Plateau = Claim{
	ID:        "F1",
	Statement: "All four baselines plateau at ~320 infected (800 susceptible x 0.40 eventual acceptance)",
	Stat:      PlateauDev,
	A:         []string{"Virus 1", "Virus 2", "Virus 3", "Virus 4"},
	Bound:     []Cond{{"<=", 0.125}},
}

// Figure1 is the baseline infection curves of all four viruses without any
// response mechanism.
func Figure1(s Scale) Figure {
	fig := Figure{
		ID:     "figure1",
		Title:  "Figure 1: Baseline Infection Curves without Response Mechanisms",
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	for _, v := range virus.Scenarios() {
		fig.Series = append(fig.Series, Series{Label: v.Name, Config: s.paperConfig(v)})
	}
	plateau := figure1Plateau
	plateau.Level = s.baselinePlateau()
	fig.Claims = []Claim{plateau}
	return fig
}

// figure2Claims are the Section 5.2 scan claims (DESIGN.md C1).
var figure2Claims = []Claim{
	{
		ID:        "C1a",
		Statement: "Scan with 6h delay contains Virus 1 to a small fraction of baseline (paper ~5%)",
		Stat:      FinalRatio, A: []string{"6-Hour Delay"}, B: "Baseline",
		Bound: []Cond{{"<", 0.20}},
	},
	{
		ID:        "C1b",
		Statement: "Scan with 24h delay still contains Virus 1 (paper ~25% of baseline)",
		Stat:      FinalRatio, A: []string{"24-Hour Delay"}, B: "Baseline",
		Bound: []Cond{{"<", 0.55}},
	},
	{
		ID:        "C1c",
		Statement: "Scan effectiveness is monotone in promptness (6h <= 12h <= 24h < baseline)",
		Stat:      FinalDiff, A: []string{"6-Hour Delay", "12-Hour Delay", "24-Hour Delay"}, B: "Baseline",
		Ordered: true, Bound: []Cond{{"<", 0}},
	},
}

// Figure2 is the gateway virus scan on Virus 1 with signature activation
// delays of 6, 12, and 24 hours.
func Figure2(s Scale) Figure {
	fig := Figure{
		ID:     "figure2",
		Title:  "Figure 2: Virus Scan: Varying the Activation Time Delay (Virus 1)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: figure2Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus1())})
	for _, delay := range []time.Duration{6 * time.Hour, 12 * time.Hour, 24 * time.Hour} {
		cfg := s.paperConfig(virus.Virus1())
		cfg.Responses = []mms.ResponseFactory{response.NewScan(delay)}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%d-Hour Delay", int(delay.Hours())),
			Config: cfg,
		})
	}
	return fig
}

// figure3Claims is the Section 5.2 detector claim (DESIGN.md C2). The
// reference level is the paper's 135/320 = 42% of the baseline plateau,
// which transfers across scales.
var figure3Claims = []Claim{{
	ID: "C2",
	Statement: "Detector at 95% accuracy multiplies Virus 2's time to the reference level " +
		"(paper: 135 infected at ~9 days vs ~2 days baseline)",
	Stat: ReachRatio, A: []string{"0.95 Accuracy"}, B: "Baseline", Level: 0.42,
	Bound: []Cond{{">=", 2}},
}}

// Figure3 is the gateway detection algorithm on Virus 2 at accuracies 0.80
// through 0.99.
func Figure3(s Scale) Figure {
	fig := Figure{
		ID:     "figure3",
		Title:  "Figure 3: Virus Detection Algorithm: Varying Detection Accuracy (Virus 2)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: figure3Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus2())})
	for _, acc := range []float64{0.99, 0.95, 0.90, 0.85, 0.80} {
		cfg := s.paperConfig(virus.Virus2())
		cfg.Responses = []mms.ResponseFactory{
			response.NewDetector(acc, response.DefaultAnalysisDelay),
		}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%.2f Accuracy", acc),
			Config: cfg,
		})
	}
	return fig
}

// figure4Claims are the Section 5.2 education claims (DESIGN.md C3), one
// per virus. The paper's prose also quotes a 25% figure for its plotted
// curve; the 0.20-acceptance level is mathematically half, see
// EXPERIMENTS.md.
var figure4Claims = func() []Claim {
	var claims []Claim
	for _, v := range virus.Scenarios() {
		claims = append(claims, Claim{
			ID:        "C3-" + v.Name[len(v.Name)-1:],
			Statement: fmt.Sprintf("Education (0.40->0.20 acceptance) halves the %s plateau", v.Name),
			Stat:      FinalRatio, A: []string{v.Name + " User Ed"}, B: v.Name,
			Bound: []Cond{{">", 0.30}, {"<", 0.70}},
		})
	}
	return claims
}()

// Figure4 is phone user education across all four viruses: the baseline
// eventual acceptance of 0.40 versus the educated 0.20.
func Figure4(s Scale) Figure {
	fig := Figure{
		ID:     "figure4",
		Title:  "Figure 4: Phone User Education: Effective for All Viruses",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: figure4Claims,
	}
	for _, v := range virus.Scenarios() {
		fig.Series = append(fig.Series, Series{Label: v.Name, Config: s.paperConfig(v)})
	}
	for _, v := range virus.Scenarios() {
		cfg := s.paperConfig(v)
		cfg.Responses = []mms.ResponseFactory{response.NewEducation(0.20)}
		fig.Series = append(fig.Series, Series{Label: v.Name + " User Ed", Config: cfg})
	}
	return fig
}

// figure5Claims are the Section 5.2 immunization claims (DESIGN.md C4).
var figure5Claims = []Claim{
	{
		ID: "C4a",
		Statement: "With 24h development, a 24h deployment infects substantially more phones " +
			"than a 1h deployment (paper: ~60% more)",
		Stat: FinalRatio, A: []string{"Hours 24-48"}, B: "Hours 24-25",
		Bound: []Cond{{">", 1.15}},
	},
	{
		ID:        "C4b",
		Statement: "Patch development time dominates: 24h development beats 48h development",
		Stat:      FinalDiff, A: []string{"Hours 24-25"}, B: "Hours 48-49",
		Bound: []Cond{{"<", 0}},
	},
	{
		ID:        "C4c",
		Statement: "All immunization variants beat the baseline",
		Stat:      FinalDiff, B: "Baseline",
		A:     []string{"Hours 24-25", "Hours 24-48", "Hours 24-30", "Hours 48-49", "Hours 48-72", "Hours 48-54"},
		Bound: []Cond{{"<", 0}},
	},
}

// Figure5 is immunization on Virus 4: development 24 or 48 hours crossed
// with deployment windows of 1, 6, and 24 hours. Labels follow the paper's
// "Hours dev-(dev+deploy)" convention.
func Figure5(s Scale) Figure {
	fig := Figure{
		ID:     "figure5",
		Title:  "Figure 5: Immunization Using Patches: Varying the Deployment Times (Virus 4)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: figure5Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus4())})
	for _, dev := range []time.Duration{24 * time.Hour, 48 * time.Hour} {
		for _, deploy := range []time.Duration{time.Hour, 24 * time.Hour, 6 * time.Hour} {
			cfg := s.paperConfig(virus.Virus4())
			cfg.Responses = []mms.ResponseFactory{response.NewImmunizer(dev, deploy)}
			fig.Series = append(fig.Series, Series{
				Label:  fmt.Sprintf("Hours %d-%d", int(dev.Hours()), int((dev + deploy).Hours())),
				Config: cfg,
			})
		}
	}
	return fig
}

// figure6Claims are the Section 5.2 monitoring claims (DESIGN.md C5). The
// paper's reference level is 150 infected, 47% of the plateau.
var figure6Claims = []Claim{
	{
		ID: "C5a",
		Statement: "Monitoring (15m wait) multiplies Virus 3's time to 47% of plateau " +
			"(paper: ~20h vs ~2.5h)",
		Stat: ReachRatio, A: []string{"15-Minute Wait"}, B: "Baseline", Level: 0.47,
		Bound: []Cond{{">=", 3}},
	},
	{
		ID:        "C5b",
		Statement: "Longer forced waits slow Virus 3 more",
		Stat:      FinalDiff, A: []string{"60-Minute Wait"}, B: "15-Minute Wait",
		Bound: []Cond{{"<=", 1}},
	},
}

// Figure6 is monitoring on Virus 3 with forced waits of 15, 30, and 60
// minutes.
func Figure6(s Scale) Figure {
	fig := Figure{
		ID:     "figure6",
		Title:  "Figure 6: Monitoring: Varying the Wait Time for Suspicious Phones (Virus 3)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: figure6Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus3())})
	for _, wait := range []time.Duration{15 * time.Minute, 30 * time.Minute, 60 * time.Minute} {
		cfg := s.paperConfig(virus.Virus3())
		cfg.Responses = []mms.ResponseFactory{response.NewMonitor(wait)}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%d-Minute Wait", int(wait.Minutes())),
			Config: cfg,
		})
	}
	return fig
}

// figure7Claims are the Section 5.2 blacklisting claims (DESIGN.md C6).
var figure7Claims = []Claim{
	{
		ID:        "C6a",
		Statement: "Blacklisting contains Virus 3 at every threshold",
		Stat:      FinalDiff, A: []string{"10 Messages", "40 Messages"}, B: "Baseline",
		Bound: []Cond{{"<", 0}},
	},
	{
		ID:        "C6b",
		Statement: "Lower thresholds contain Virus 3 more (10 <= 40 messages)",
		Stat:      FinalDiff, A: []string{"10 Messages"}, B: "40 Messages",
		Bound: []Cond{{"<=", 1}},
	},
}

// Figure7 is blacklisting on Virus 3 with thresholds 10 through 40
// suspected infected messages.
func Figure7(s Scale) Figure {
	fig := Figure{
		ID:     "figure7",
		Title:  "Figure 7: Blacklisting: Varying the Activation Threshold (Virus 3)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: figure7Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus3())})
	for _, threshold := range []int{10, 20, 30, 40} {
		cfg := s.paperConfig(virus.Virus3())
		cfg.Responses = []mms.ResponseFactory{response.NewBlacklist(threshold)}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%d Messages", threshold),
			Config: cfg,
		})
	}
	return fig
}

// ScalingStudy reproduces the Section 5.3 remark that the results scale to
// a 2,000-phone population: Virus 1 baselines at 1,000 and 2,000 phones.
// Scaled variants divide both populations.
func ScalingStudy(s Scale) Figure {
	fig := Figure{
		ID:     "scaling",
		Title:  "Section 5.3: Population Scaling (Virus 1 baseline, 1000 vs 2000 phones)",
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	small := s.paperConfig(virus.Virus1())
	large := small
	large.Population *= 2
	smallLabel := fmt.Sprintf("%d phones", small.Population)
	largeLabel := fmt.Sprintf("%d phones", large.Population)
	fig.Series = append(fig.Series,
		Series{Label: smallLabel, Config: small},
		Series{Label: largeLabel, Config: large},
	)
	fig.Claims = []Claim{{
		ID:        "SC",
		Statement: "A 2,000-phone population doubles the plateau without changing the picture",
		Stat:      FinalRatio, A: []string{largeLabel}, B: smallLabel,
		Bound: []Cond{{">=", 1.6}, {"<=", 2.4}},
	}}
	return fig
}

// combinedClaims is the Section 6 extension EXT1: monitoring buys the scan
// the time it needs.
var combinedClaims = []Claim{{
	ID:        "EXT1",
	Statement: "Monitoring plus a 6h scan contains Virus 3 more than the baseline or the scan alone",
	Stat:      FinalDiff, A: []string{"Baseline", "Scan only (6h)"}, B: "Monitor + Scan",
	Bound: []Cond{{">", 0}},
}}

// CombinedStudy is the paper's stated future-work extension: a response
// that slows the virus (monitoring) paired with one that stops it (gateway
// scan), against fast Virus 3 where neither scan alone nor nothing works.
func CombinedStudy(s Scale) Figure {
	fig := Figure{
		ID:     "combined",
		Title:  "Section 6 extension: Combining Monitoring with a Gateway Scan (Virus 3)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: combinedClaims,
	}
	base := s.paperConfig(virus.Virus3())
	scanOnly := s.paperConfig(virus.Virus3())
	scanOnly.Responses = []mms.ResponseFactory{response.NewScan(6 * time.Hour)}
	monitorOnly := s.paperConfig(virus.Virus3())
	monitorOnly.Responses = []mms.ResponseFactory{response.NewMonitor(15 * time.Minute)}
	both := s.paperConfig(virus.Virus3())
	both.Responses = []mms.ResponseFactory{
		response.NewMonitor(15 * time.Minute),
		response.NewScan(6 * time.Hour),
	}
	fig.Series = append(fig.Series,
		Series{Label: "Baseline", Config: base},
		Series{Label: "Scan only (6h)", Config: scanOnly},
		Series{Label: "Monitor only (15m)", Config: monitorOnly},
		Series{Label: "Monitor + Scan", Config: both},
	)
	return fig
}

// ShardedResponseStudy locks down the sharded response path end to end
// (DESIGN.md §15): Virus 3 on a 4-shard population, unmitigated and under
// the paper's strongest mechanism stack. The populations and mechanisms
// mirror unsharded studies, so the curves double as a visual check that
// barrier-merged responses behave like their unsharded counterparts; the
// committed CSV is regenerated and diffed by nightly CI, pinning the whole
// sharded protocol — canonical exchange order, merged detection, armed
// activation, canonical patch waves — at figure granularity.
func ShardedResponseStudy(s Scale) Figure {
	fig := Figure{
		ID:     "sharded-response",
		Title:  "DESIGN.md §15: Response Mechanisms on the Sharded Path (Virus 3, 4 shards)",
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	shard := func(cfg core.Config) core.Config {
		cfg.Shards = 4
		cfg.ShardWindow = 15 * time.Minute
		return cfg
	}
	base := shard(s.paperConfig(virus.Virus3()))
	scanOnly := shard(s.paperConfig(virus.Virus3()))
	scanOnly.Responses = []mms.ResponseFactory{response.NewScan(6 * time.Hour)}
	stacked := shard(s.paperConfig(virus.Virus3()))
	stacked.Responses = []mms.ResponseFactory{
		response.NewScan(6 * time.Hour),
		response.NewImmunizer(24*time.Hour, 6*time.Hour),
		response.NewBlacklist(10),
	}
	fig.Series = append(fig.Series,
		Series{Label: "Baseline (4 shards)", Config: base},
		Series{Label: "Scan 6h (4 shards)", Config: scanOnly},
		Series{Label: "Scan + Immunize + Blacklist (4 shards)", Config: stacked},
	)
	return fig
}

// studyTable is the study matrix in report order, one row per study: the
// paper's seven figures, the scaling, combined and sharded-response
// studies, and the negative-result and equivalence reproductions. A row
// builds only its own study, so selecting one study by ID builds one.
var studyTable = []struct {
	id    string
	build func(Scale) Figure
}{
	{"figure1", Figure1},
	{"figure2", Figure2},
	{"figure3", Figure3},
	{"figure4", Figure4},
	{"figure5", Figure5},
	{"figure6", Figure6},
	{"figure7", Figure7},
	{"scaling", ScalingStudy},
	{"combined", CombinedStudy},
	{"sharded-response", ShardedResponseStudy},
	{"neg-scan-v3", ScanVsVirus3Study},
	{"neg-monitor-slow", MonitorVsSlowVirusesStudy},
	{"neg-blacklist-v2", BlacklistVsVirus2Study},
	{"neg-blacklist-v1", BlacklistVsVirus1Study},
	{"blacklist-equivalence", BlacklistEquivalenceStudy},
}

// paperFigures is how many of studyTable's rows are the paper's figures.
const paperFigures = 7

// AllFigures returns every paper figure in order.
func AllFigures(s Scale) []Figure { return buildStudies(s, paperFigures) }

// AllStudies returns the figures plus the scaling and combined studies and
// the negative-result reproductions.
func AllStudies(s Scale) []Figure { return buildStudies(s, len(studyTable)) }

// buildStudies builds the first n rows of studyTable.
func buildStudies(s Scale, n int) []Figure {
	figs := make([]Figure, n)
	for i, row := range studyTable[:n] {
		figs[i] = row.build(s)
	}
	return figs
}
