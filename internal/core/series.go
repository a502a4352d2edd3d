package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/curve"
	"repro/internal/pool"
)

// This file is the replication scheduler, the one place replications are
// fanned out: RunContext submits one series to a pool of its own, and
// experiment.RunSweep submits every series of a sweep to one shared pool.
// Two properties are load-bearing:
//
//   - Determinism. Workers race only over which replication runs when;
//     each is a pure function of (config, seed), results land in
//     replication-indexed slots, and Wait assembles the RunSet in seed
//     order. Output is therefore identical for any pool width.
//   - Crash isolation. The per-replication function recovers panics into
//     a *ReplicationError in its slot (RunReplication does), and Wait
//     applies the salvage quorum.

// ReplicationFunc runs replication i of cfg with the given seed and must
// be crash-isolated: a failure or panic comes back as a *ReplicationError,
// never as a panic. RunReplication is the plain one; a result cache wraps
// it.
type ReplicationFunc func(ctx context.Context, cfg Config, i int, seed uint64) (*Result, *ReplicationError)

// Series is one scenario's replications in flight on a pool. Slots are
// indexed by replication, so assembly never depends on completion order.
type Series struct {
	cfg     Config
	opts    Options
	results []*Result
	errs    []*ReplicationError
	pending sync.WaitGroup
	// err is a config or options error found before anything was
	// enqueued: the series fails with it once, not once per replication.
	err error
}

// SubmitSeries validates cfg and opts (after WithDefaults) and enqueues one
// task per replication on p; replication i calls run with seed
// ReplicationSeed(opts.BaseSeed, i). It returns at once; Wait collects the
// RunSet. opts.Parallelism is not consulted: the pool's width is the
// concurrency bound.
func SubmitSeries(p *pool.Pool, ctx context.Context, cfg Config, opts Options, run ReplicationFunc) *Series {
	opts = opts.WithDefaults()
	s := &Series{cfg: cfg, opts: opts}
	if err := cfg.Validate(); err != nil {
		s.err = err
		return s
	}
	if opts.MinReplications > opts.Replications {
		s.err = fmt.Errorf("core: salvage quorum %d exceeds %d replications",
			opts.MinReplications, opts.Replications)
		return s
	}
	s.results = make([]*Result, opts.Replications)
	s.errs = make([]*ReplicationError, opts.Replications)
	s.pending.Add(opts.Replications)
	for i := 0; i < opts.Replications; i++ {
		seed := ReplicationSeed(opts.BaseSeed, i)
		p.Submit(func() {
			defer s.pending.Done()
			s.results[i], s.errs[i] = run(ctx, s.cfg, i, seed)
		})
	}
	return s
}

// Wait blocks until every replication of the series has run, then
// aggregates the survivors in seed order. All failures are joined into the
// error alongside the partial RunSet, unless at least opts.MinReplications
// (when positive) survived: then they are recorded in RunSet.Failed and
// the error is nil.
func (s *Series) Wait() (*RunSet, error) {
	if s.err != nil {
		return nil, s.err
	}
	s.pending.Wait()
	rs := &RunSet{Config: s.cfg}
	var failed []*ReplicationError
	for i, r := range s.results {
		if s.errs[i] != nil {
			failed = append(failed, s.errs[i])
			continue
		}
		rs.Results = append(rs.Results, r)
		rs.Seeds = append(rs.Seeds, ReplicationSeed(s.opts.BaseSeed, i))
	}
	if len(rs.Results) > 0 {
		curves := make([]*curve.Curve, len(rs.Results))
		for i, r := range rs.Results {
			curves[i] = r.Infections
		}
		band, err := curve.Aggregate(curves, s.cfg.Horizon, s.opts.GridPoints)
		if err != nil {
			return rs, err
		}
		rs.Band = band
	}
	if len(failed) == 0 {
		return rs, nil
	}
	if s.opts.MinReplications > 0 && len(rs.Results) >= s.opts.MinReplications {
		// Salvage: enough survivors to aggregate; the failures stay
		// visible on the RunSet.
		rs.Failed = failed
		return rs, nil
	}
	joined := make([]error, len(failed))
	for i, e := range failed {
		joined[i] = e
	}
	return rs, errors.Join(joined...)
}
