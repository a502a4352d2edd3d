package experiment

import (
	"errors"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/curve"
)

// timeNow is the harness's wall-clock source for Elapsed measurements.
// It is a package variable so tests can inject a deterministic clock
// (clock.Fixed / clock.Stepped); simulated time never flows through it.
var timeNow clock.Clock = clock.System

// SeriesResult is one executed series of a figure.
type SeriesResult struct {
	// Label echoes the series label.
	Label string
	// Band is the cross-replication infection curve.
	Band *curve.Band
	// FinalMean is the mean final infection count.
	FinalMean float64
	// RunSet holds the full per-replication detail.
	RunSet *core.RunSet
}

// FigureResult is an executed figure.
type FigureResult struct {
	// Figure echoes the definition.
	Figure Figure
	// Series holds results in definition order.
	Series []SeriesResult
	// Elapsed is the wall-clock cost of the run.
	Elapsed time.Duration
}

// SeriesByLabel returns the named series result.
func (fr *FigureResult) SeriesByLabel(label string) (*SeriesResult, bool) {
	for i := range fr.Series {
		if fr.Series[i].Label == label {
			return &fr.Series[i], true
		}
	}
	return nil, false
}

// ErrSeriesMissing is returned by claim evaluations when a needed series is
// absent from a figure result.
var ErrSeriesMissing = errors.New("experiment: series missing from figure result")
