// Package repro_test benchmarks regenerate every figure of the paper's
// evaluation section plus the scaling study, the combined-response
// extension, and ablations of this reproduction's design choices
// (documented in DESIGN.md). Each benchmark iteration runs the full
// experiment at the paper's population with a small replication count and
// reports the headline measure (mean final infections) as a custom metric,
// so `go test -bench=. -benchmem` both times the simulator and re-derives
// the paper's numbers.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// benchOpts keeps each iteration affordable while exercising the full
// paper-scale population.
func benchOpts() core.Options {
	return core.Options{Replications: 2, GridPoints: 50}
}

// figure runs fig once at benchOpts: one op of the figure benchmarks.
func figure(tb testing.TB, fig experiment.Figure) *experiment.FigureResult {
	tb.Helper()
	opts := benchOpts()
	sr, err := experiment.RunSweep(context.Background(), []experiment.Figure{fig}, opts, experiment.SweepOptions{Jobs: opts.Parallelism})
	if err != nil {
		tb.Fatal(err)
	}
	return sr.Figures[0]
}

// runFigure executes the figure once per iteration and reports the final
// infection means of its first and last series.
func runFigure(b *testing.B, fig experiment.Figure) {
	b.Helper()
	var fr *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fr = figure(b, fig)
	}
	if fr != nil {
		b.ReportMetric(fr.Series[0].FinalMean, "final-infected/first-series")
		b.ReportMetric(fr.Series[len(fr.Series)-1].FinalMean, "final-infected/last-series")
	}
}

func BenchmarkFigure1Baselines(b *testing.B) {
	runFigure(b, experiment.Figure1(experiment.FullScale))
}

// TestFigure1Allocs pins BenchmarkFigure1Baselines' allocations per run at
// the recorded count plus 0.1% slack, counted at GOMAXPROCS 1 as
// testing.AllocsPerRun does, which also makes the replication pool one
// worker wide. Its final means are fixed by results/figure1.csv, whose
// first two replications per series are this run's.
func TestFigure1Allocs(t *testing.T) {
	fig := experiment.Figure1(experiment.FullScale)
	allocs := testing.AllocsPerRun(1, func() { figure(t, fig) })
	t.Logf("%.0f allocs", allocs)
	if allocs > 14_380+14 {
		t.Errorf("%.0f allocs per figure run, want at most %d", allocs, 14_380+14)
	}
}

func BenchmarkFigure2VirusScan(b *testing.B) {
	runFigure(b, experiment.Figure2(experiment.FullScale))
}

func BenchmarkFigure3Detection(b *testing.B) {
	runFigure(b, experiment.Figure3(experiment.FullScale))
}

func BenchmarkFigure4Education(b *testing.B) {
	runFigure(b, experiment.Figure4(experiment.FullScale))
}

func BenchmarkFigure5Immunization(b *testing.B) {
	runFigure(b, experiment.Figure5(experiment.FullScale))
}

func BenchmarkFigure6Monitoring(b *testing.B) {
	runFigure(b, experiment.Figure6(experiment.FullScale))
}

func BenchmarkFigure7Blacklisting(b *testing.B) {
	runFigure(b, experiment.Figure7(experiment.FullScale))
}

// BenchmarkScaling2000 reproduces the Section 5.3 remark: the same study at
// a 2,000-phone population.
func BenchmarkScaling2000(b *testing.B) {
	runFigure(b, experiment.ScalingStudy(experiment.FullScale))
}

// BenchmarkCombinedResponses reproduces the Section 6 future-work study:
// monitoring buying time for a gateway scan on Virus 3.
func BenchmarkCombinedResponses(b *testing.B) {
	runFigure(b, experiment.CombinedStudy(experiment.FullScale))
}

// BenchmarkNegativeScanVsVirus3 reproduces the paper's negative result:
// the scan cannot catch Virus 3.
func BenchmarkNegativeScanVsVirus3(b *testing.B) {
	runFigure(b, experiment.ScanVsVirus3Study(experiment.FullScale))
}

// BenchmarkNegativeMonitorVsSlow reproduces the paper's negative result:
// monitoring misses self-throttled viruses.
func BenchmarkNegativeMonitorVsSlow(b *testing.B) {
	runFigure(b, experiment.MonitorVsSlowVirusesStudy(experiment.FullScale))
}

// BenchmarkNegativeBlacklistVsVirus2 reproduces the paper's negative
// result: message counting misses multi-recipient spread.
func BenchmarkNegativeBlacklistVsVirus2(b *testing.B) {
	runFigure(b, experiment.BlacklistVsVirus2Study(experiment.FullScale))
}

// BenchmarkBlacklistEquivalence reproduces the Section 5.2 equivalence of
// threshold 30 against random dialing and threshold 10 against contacts.
func BenchmarkBlacklistEquivalence(b *testing.B) {
	runFigure(b, experiment.BlacklistEquivalenceStudy(experiment.FullScale))
}

// BenchmarkSingleReplication times one full-scale Virus 1 baseline
// replication — the simulator's core unit of work.
func BenchmarkSingleReplication(b *testing.B) {
	cfg := core.Default(virus.Virus1())
	for i := 0; i < b.N; i++ {
		if _, err := core.RunOnce(cfg, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks for DESIGN.md's modeling choices ---

// BenchmarkAblationDetectorIndependent runs Virus 2 against a detector with
// independent per-copy verdicts instead of the default correlated
// per-sender-day recognition. DESIGN.md argues independence cannot slow the
// multi-recipient flood; the reported metric shows it.
func BenchmarkAblationDetectorIndependent(b *testing.B) {
	cfg := core.Default(virus.Virus2())
	cfg.Responses = []mms.ResponseFactory{
		func() mms.Response {
			return &response.Detector{
				Accuracy:           0.95,
				AnalysisDelay:      response.DefaultAnalysisDelay,
				IndependentPerCopy: true,
			}
		},
	}
	var rs *core.RunSet
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = core.Run(cfg, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if rs != nil {
		b.ReportMetric(rs.FinalMean(), "final-infected")
	}
}

// BenchmarkAblationConfigurationModelGraph runs the Virus 1 baseline on a
// configuration-model contact graph (clustering ~0.2) instead of the
// default locality wiring (clustering ~0.7), showing how topology drives
// the time scale of the curves.
func BenchmarkAblationConfigurationModelGraph(b *testing.B) {
	cfg := core.Default(virus.Virus1())
	cfg.Graph.Locality = false
	var rs *core.RunSet
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = core.Run(cfg, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if rs != nil {
		if t, ok := rs.Band.TimeToReachMean(rs.FinalMean() * 0.9); ok {
			b.ReportMetric(t.Hours(), "hours-to-90pct")
		}
	}
}

// BenchmarkAblationDuplicateTrials runs Virus 2 with duplicate-trial
// suppression disabled: every delivered copy gets an independent consent
// decision, which lets the flood exhaust each user's acceptance within the
// first day.
func BenchmarkAblationDuplicateTrials(b *testing.B) {
	cfg := core.Default(virus.Virus2())
	cfg.Network.AllowDuplicateTrials = true
	var rs *core.RunSet
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = core.Run(cfg, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if rs != nil {
		if t, ok := rs.Band.TimeToReachMean(rs.FinalMean() * 0.9); ok {
			b.ReportMetric(t.Hours(), "hours-to-90pct")
		}
	}
}

// BenchmarkAblationMonitorWindow compares the default 30-minute/2-message
// monitoring window against a 24-hour/35-message variant that lets Virus 3
// burst freely before flagging.
func BenchmarkAblationMonitorWindow(b *testing.B) {
	cfg := core.Default(virus.Virus3())
	cfg.Responses = []mms.ResponseFactory{
		response.NewMonitorFull(24*time.Hour, 35, 15*time.Minute),
	}
	var rs *core.RunSet
	for i := 0; i < b.N; i++ {
		var err error
		rs, err = core.Run(cfg, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if rs != nil {
		b.ReportMetric(rs.FinalMean(), "final-infected")
	}
}
