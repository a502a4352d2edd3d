package experiment

import (
	"context"
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

// RunFigure executes every series of the figure with the given options.
// Every series runs on one shared worker pool (opts.Parallelism wide) via
// the sweep scheduler, and series inherit core.RunContext's salvage
// semantics, so a series whose surviving replications meet
// opts.MinReplications still contributes its aggregated band. A failed
// series does not discard the completed ones: per-series failures are
// collected with errors.Join and the partial FigureResult is returned
// alongside the error, mirroring core.RunSet salvage.
func RunFigure(fig Figure, opts core.Options) (*FigureResult, error) {
	return RunFigureCached(context.Background(), fig, opts, nil)
}

// RunFigureCached is RunFigure under a context, where a cancellation or
// timeout aborts in-flight replications, with a caller-supplied
// replication cache: the hook the CLIs use to attach a persistent result
// store (and its sweep journal) to a single-figure run. A nil cache runs
// uncached.
func RunFigureCached(ctx context.Context, fig Figure, opts core.Options, cache *ReplicationCache) (*FigureResult, error) {
	sr, err := RunSweep(ctx, []Figure{fig}, opts, SweepOptions{Jobs: opts.Parallelism, Cache: cache})
	if err != nil {
		if sr != nil {
			return sr.Figures[0], err
		}
		return nil, err
	}
	return sr.Figures[0], nil
}

// ErrSeriesMissing is returned by claim evaluations when a needed series is
// absent from a figure result.
var ErrSeriesMissing = errors.New("experiment: series missing from figure result")
