package experiment

import (
	"context"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/workq"
)

// This file bridges the study matrix to the distributed work queue: the
// coordinator enumerates every cacheable (fingerprint, seed) replication
// into workq units, and workers resolve those units back to configs by
// rebuilding the same matrix from the manifest's spec. The fingerprint is
// the contract between the two: a worker that derives a different config
// for the same (figure, series) — version skew between binaries — produces
// a different fingerprint, fails the unit permanently, and the coordinator
// recomputes it locally instead of trusting a mismatched result.

// SelectStudies resolves a figure selector as the CLIs expose it: "all"
// for the whole matrix, or one study ID, for which it builds that study
// alone.
func SelectStudies(figureID string, sc Scale) ([]Figure, error) {
	if figureID == "all" {
		return AllStudies(sc), nil
	}
	for _, row := range studyTable {
		if row.id == figureID {
			return []Figure{row.build(sc)}, nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown figure %q", figureID)
}

// SweepUnits enumerates the distributable units of a sweep: one per
// distinct (fingerprint, seed) pair, in deterministic matrix order, with
// scenarios shared across studies deduplicated exactly as the replication
// cache would. Series whose configs are uncacheable (opaque elements, no
// fingerprint) cannot be addressed in a store and are skipped — the
// coordinator computes them locally at assembly; their count is returned.
func SweepUnits(figs []Figure, opts core.Options) (units []workq.Unit, uncacheableSeries int) {
	opts = opts.WithDefaults()
	seen := make(map[string]bool)
	for _, fig := range figs {
		for si, s := range fig.Series {
			fp := ConfigFingerprint(s.Config)
			if !fp.Cacheable() {
				uncacheableSeries++
				continue
			}
			for r := 0; r < opts.Replications; r++ {
				seed := core.ReplicationSeed(opts.BaseSeed, r)
				key, _ := fp.StoreKey(seed)
				id := key.String()
				if seen[id] {
					continue
				}
				seen[id] = true
				units = append(units, workq.Unit{
					Index:  len(units),
					Fig:    fig.ID,
					Series: si,
					Rep:    r,
					FP:     hex.EncodeToString(key.Sum[:]),
					Seed:   seed,
				})
			}
		}
	}
	return units, uncacheableSeries
}

// UnitRunner returns the workq callback that executes one manifest unit:
// resolve the unit's fingerprint to a config from this binary's study
// matrix, skip if the store already holds the result (another worker, or a
// previous run), otherwise simulate, publish atomically, and journal. The
// published entry is what completes the unit. The callback's replications
// share one core.TopologyTable, so a worker builds each topology once for
// all the units it runs. Any
// error — unknown fingerprint, simulation failure, store I/O — surfaces to
// workq's retry/dead-letter policy.
func UnitRunner(st store.Store, j *store.Journal, figs []Figure) workq.RunFunc {
	cfgByFP := make(map[string]core.Config)
	for _, fig := range figs {
		for _, s := range fig.Series {
			fp := ConfigFingerprint(s.Config)
			key, ok := fp.StoreKey(0)
			if !ok {
				continue
			}
			cfgByFP[hex.EncodeToString(key.Sum[:])] = s.Config
		}
	}
	topos := core.NewTopologyTable()
	return func(ctx context.Context, u workq.Unit) error {
		cfg, ok := cfgByFP[u.FP]
		if !ok {
			return fmt.Errorf("experiment: unit %d (%s series %d rep %d) fingerprint %.16s… not derivable from this binary's study matrix: coordinator/worker version skew",
				u.Index, u.Fig, u.Series, u.Rep, u.FP)
		}
		key, err := u.Key()
		if err != nil {
			return err
		}
		if res, ok, err := st.Get(ctx, key); err == nil && ok && res != nil {
			return nil // already durable: complete without recomputing
		}
		res, repErr := topos.RunReplication(ctx, cfg, u.Rep, u.Seed)
		if repErr != nil {
			return repErr
		}
		if err := st.Put(ctx, key, res); err != nil {
			return err
		}
		if j != nil {
			// A failed journal append costs only resume bookkeeping — the
			// result itself is durable — so it is deliberately not fatal.
			_ = j.Append(ctx, key)
		}
		return nil
	}
}
