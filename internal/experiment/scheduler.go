package experiment

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pool"
)

// This file is the sweep scheduler: it flattens every (study, series,
// replication) unit of the full study matrix into one bounded worker pool,
// so a slow series no longer serializes behind a fast one and the machine
// stays saturated from the first replication to the last. Each series is a
// core.SubmitSeries on that pool, the scheduler core.RunContext uses too,
// so a series keeps RunContext's determinism and salvage semantics
// exactly; the cache cannot perturb them because a cached result is the
// one (config, seed) would simulate.

// SweepOptions tunes the cross-study scheduler.
type SweepOptions struct {
	// Jobs is the worker-pool width shared by every study in the sweep;
	// <= 0 means runtime.GOMAXPROCS(0). There is no per-series limit and
	// no nested semaphore: Jobs is the single concurrency bound.
	Jobs int
	// Cache, when non-nil, memoizes replication results by config
	// fingerprint and seed, so scenarios shared across studies (every
	// figure's Baseline) are simulated once per seed.
	Cache *ReplicationCache
}

// SweepResult is the outcome of a scheduled multi-study run.
type SweepResult struct {
	// Figures holds one result per requested figure, in request order. A
	// figure whose series partly failed is still present with its
	// surviving series (see FigureErrs).
	Figures []*FigureResult
	// FigureErrs is parallel to Figures: nil for a clean figure, the
	// errors.Join of its per-series failures otherwise.
	FigureErrs []error
	// Cache snapshots the cache counters after the sweep (zeros when the
	// sweep ran uncached).
	Cache CacheStats
	// Elapsed is the wall-clock cost of the whole sweep.
	Elapsed time.Duration
}

// RunSweep executes every series of every figure on one shared worker pool
// and assembles results deterministically. The returned error is the
// errors.Join of all per-figure errors; the *SweepResult is always
// returned alongside it with every surviving series, mirroring
// core.RunSet's salvage contract. Every simulated replication of the
// sweep takes its contact topology from one core.TopologyTable, so a
// topology shared by several series is built once; the table is dropped
// when RunSweep returns.
func RunSweep(ctx context.Context, figs []Figure, opts core.Options, so SweepOptions) (*SweepResult, error) {
	return runSweep(ctx, figs, opts, so, core.NewTopologyTable())
}

// runSweep is RunSweep with the sweep's topology table supplied.
func runSweep(ctx context.Context, figs []Figure, opts core.Options, so SweepOptions, topos *core.TopologyTable) (*SweepResult, error) {
	start := timeNow()
	if ctx == nil {
		ctx = context.Background()
	}
	for _, fig := range figs {
		if len(fig.Series) == 0 {
			return nil, fmt.Errorf("experiment: figure %s has no series", fig.ID)
		}
	}

	p := pool.New(so.Jobs)
	defer p.Close()

	// Enqueue everything before waiting on anything: the pool sees the
	// whole matrix at once, so workers drain replications of study N+1
	// while study N's stragglers finish.
	jobs := make([][]*core.Series, len(figs))
	for fi, fig := range figs {
		jobs[fi] = make([]*core.Series, len(fig.Series))
		for si, s := range fig.Series {
			jobs[fi][si] = core.SubmitSeries(p, ctx, s.Config, opts, so.Cache.runner(s.Config, topos))
		}
	}

	out := &SweepResult{
		Figures:    make([]*FigureResult, len(figs)),
		FigureErrs: make([]error, len(figs)),
	}
	var sweepErrs []error
	for fi, fig := range figs {
		fr := &FigureResult{Figure: fig, Series: make([]SeriesResult, 0, len(fig.Series))}
		var serErrs []error
		for si, s := range fig.Series {
			rs, err := jobs[fi][si].Wait()
			if err != nil {
				serErrs = append(serErrs, fmt.Errorf("experiment: %s / %s: %w", fig.ID, s.Label, err))
				continue
			}
			fr.Series = append(fr.Series, SeriesResult{
				Label:     s.Label,
				Band:      rs.Band,
				FinalMean: rs.FinalMean(),
				RunSet:    rs,
			})
		}
		fr.Elapsed = timeNow().Sub(start)
		out.Figures[fi] = fr
		if len(serErrs) > 0 {
			err := errors.Join(serErrs...)
			out.FigureErrs[fi] = err
			sweepErrs = append(sweepErrs, err)
		}
	}
	out.Cache = so.Cache.Stats()
	out.Elapsed = timeNow().Sub(start)
	return out, errors.Join(sweepErrs...)
}
