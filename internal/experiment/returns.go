package experiment

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// Section 5.3 argues the experiments are "useful for locating the point of
// diminishing returns for each individual response mechanism, the point
// where implementing a faster or more accurate response mechanism does not
// much improve the success rate". This file implements that analysis: for
// one mechanism, sweep its strength knob, measure prevented infections at
// each level, and locate the knee where the marginal benefit of the next
// increment falls below a threshold.

// SweepPoint is one strength level of a mechanism sweep.
type SweepPoint struct {
	// Strength is the mechanism's knob value, oriented so larger is
	// stronger (and presumed costlier).
	Strength float64
	// Label names the level.
	Label string
	// Config is the full scenario at this level.
	Config core.Config
}

// Sweep is an ordered strength sweep of one mechanism against one virus.
type Sweep struct {
	// Name identifies the mechanism.
	Name string
	// Baseline is the unprotected scenario.
	Baseline core.Config
	// Points are the strength levels in increasing-strength order.
	Points []SweepPoint
}

// Figure is the sweep as one study: the baseline first, then the levels
// in increasing-strength order. Run it alone or inside a larger RunSweep
// and pass its result to EvaluateKnee.
func (sw Sweep) Figure() Figure {
	fig := Figure{
		ID:     sw.Name,
		Title:  sw.Name,
		XLabel: "Hours",
		YLabel: "Infection Count",
		Series: []Series{{Label: "Baseline", Config: sw.Baseline}},
	}
	for _, p := range sw.Points {
		fig.Series = append(fig.Series, Series{Label: p.Label, Config: p.Config})
	}
	return fig
}

// ReturnsPoint is one evaluated level.
type ReturnsPoint struct {
	Label     string
	Final     float64
	Prevented float64 // baseline final − this final
	// MarginalGain is the additional prevention relative to the previous
	// (weaker) level; the first level's marginal gain is its full
	// prevention.
	MarginalGain float64
}

// ReturnsResult is an evaluated sweep with its knee.
type ReturnsResult struct {
	Name     string
	Baseline float64
	Points   []ReturnsPoint
	// KneeIndex is the first level whose marginal gain drops below
	// KneeFraction of the baseline; -1 when returns never diminish within
	// the sweep.
	KneeIndex int
	// KneeFraction echoes the threshold used.
	KneeFraction float64
}

// Knee returns the knee point, if any.
func (r *ReturnsResult) Knee() (ReturnsPoint, bool) {
	if r.KneeIndex < 0 || r.KneeIndex >= len(r.Points) {
		return ReturnsPoint{}, false
	}
	return r.Points[r.KneeIndex], true
}

// EvaluateKnee locates the point of diminishing returns in an executed
// Sweep.Figure: the first strength increment after the weakest level whose
// marginal prevention is strictly below kneeFraction of the baseline
// infections. kneeFraction must lie in (0,1). It reads the series in
// definition order and returns ErrSeriesMissing when one is absent, as in
// the partial result of a failed sweep.
func EvaluateKnee(fr *FigureResult, kneeFraction float64) (*ReturnsResult, error) {
	if len(fr.Figure.Series) < 3 {
		return nil, errors.New("experiment: returns sweep needs at least 2 levels")
	}
	if kneeFraction <= 0 || kneeFraction >= 1 {
		return nil, fmt.Errorf("experiment: knee fraction %v outside (0,1)", kneeFraction)
	}
	for i, s := range fr.Figure.Series {
		if i >= len(fr.Series) || fr.Series[i].Label != s.Label {
			return nil, fmt.Errorf("%w: %s / %s", ErrSeriesMissing, fr.Figure.ID, s.Label)
		}
	}
	base := fr.Series[0].FinalMean
	res := &ReturnsResult{
		Name:         fr.Figure.Title,
		Baseline:     base,
		KneeIndex:    -1,
		KneeFraction: kneeFraction,
	}
	prevPrevented := 0.0
	for i, s := range fr.Series[1:] {
		prevented := base - s.FinalMean
		pt := ReturnsPoint{
			Label:        s.Label,
			Final:        s.FinalMean,
			Prevented:    prevented,
			MarginalGain: prevented - prevPrevented,
		}
		res.Points = append(res.Points, pt)
		if res.KneeIndex < 0 && i > 0 && pt.MarginalGain < kneeFraction*base {
			res.KneeIndex = i
		}
		prevPrevented = prevented
	}
	return res, nil
}

// ScanReturnsSweep sweeps the gateway scan's promptness (strength = 1/delay
// hours) against Virus 1.
func ScanReturnsSweep(s Scale) Sweep {
	baseline := s.paperConfig(virus.Virus1())
	sweep := Sweep{Name: "gateway-scan promptness (Virus 1)", Baseline: baseline}
	for _, delay := range []time.Duration{48 * time.Hour, 24 * time.Hour, 12 * time.Hour, 6 * time.Hour, 3 * time.Hour, time.Hour} {
		cfg := s.paperConfig(virus.Virus1())
		cfg.Responses = []mms.ResponseFactory{response.NewScan(delay)}
		sweep.Points = append(sweep.Points, SweepPoint{
			Strength: 1 / delay.Hours(),
			Label:    fmt.Sprintf("delay %v", delay),
			Config:   cfg,
		})
	}
	return sweep
}

// DetectorReturnsSweep sweeps the detector accuracy against Virus 2.
func DetectorReturnsSweep(s Scale) Sweep {
	baseline := s.paperConfig(virus.Virus2())
	sweep := Sweep{Name: "gateway-detector accuracy (Virus 2)", Baseline: baseline}
	for _, acc := range []float64{0.80, 0.90, 0.95, 0.99, 0.999} {
		cfg := s.paperConfig(virus.Virus2())
		cfg.Responses = []mms.ResponseFactory{response.NewDetector(acc, response.DefaultAnalysisDelay)}
		sweep.Points = append(sweep.Points, SweepPoint{
			Strength: acc,
			Label:    fmt.Sprintf("accuracy %.3f", acc),
			Config:   cfg,
		})
	}
	return sweep
}

// MonitorReturnsSweep sweeps the monitoring forced wait against Virus 3.
func MonitorReturnsSweep(s Scale) Sweep {
	baseline := s.paperConfig(virus.Virus3())
	sweep := Sweep{Name: "monitoring forced wait (Virus 3)", Baseline: baseline}
	for _, wait := range []time.Duration{5 * time.Minute, 15 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour} {
		cfg := s.paperConfig(virus.Virus3())
		cfg.Responses = []mms.ResponseFactory{response.NewMonitor(wait)}
		sweep.Points = append(sweep.Points, SweepPoint{
			Strength: wait.Hours(),
			Label:    fmt.Sprintf("wait %v", wait),
			Config:   cfg,
		})
	}
	return sweep
}

// ImmunizerReturnsSweep sweeps the deployment window (strength = 1/window)
// at 24 h development against Virus 4, the paper's bandwidth-cost tradeoff.
func ImmunizerReturnsSweep(s Scale) Sweep {
	baseline := s.paperConfig(virus.Virus4())
	sweep := Sweep{Name: "immunization deployment speed (Virus 4)", Baseline: baseline}
	for _, window := range []time.Duration{48 * time.Hour, 24 * time.Hour, 6 * time.Hour, time.Hour, 15 * time.Minute} {
		cfg := s.paperConfig(virus.Virus4())
		cfg.Responses = []mms.ResponseFactory{response.NewImmunizer(24*time.Hour, window)}
		sweep.Points = append(sweep.Points, SweepPoint{
			Strength: 1 / window.Hours(),
			Label:    fmt.Sprintf("deploy %v", window),
			Config:   cfg,
		})
	}
	return sweep
}
