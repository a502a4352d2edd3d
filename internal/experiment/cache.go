package experiment

import (
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/store"
)

// ReplicationCache memoizes replication results by content address: the
// key is (config fingerprint, replication seed), the value a *core.Result.
// Because core.RunReplication's outcome is fully determined by that pair,
// a Baseline scenario shared by several studies is simulated once per seed
// and every study reads the same result object — which is also why the
// cache cannot perturb output bytes. Cached results are shared read-only;
// nothing in the aggregation or reporting paths mutates a Result.
//
// The cache is two-tiered. The in-memory tier collapses concurrent
// requests for the same key within one process: one caller simulates
// while the rest wait and count a hit. The optional persistent tier
// (NewPersistentCache) consults a store.Store before simulating and
// publishes what it computes, so results survive the process and a killed
// sweep resumes from disk; the store's lease also serializes computation
// of one key across processes.
// Store failures of any kind degrade to recomputation — a damaged or
// unwritable store can slow a sweep down but never change its output.
//
// Failed replications are never cached in either tier: the failure is
// returned to the caller that ran it, and the key is released so a later
// request retries.
type ReplicationCache struct {
	entries sync.Map // replicationKey -> *cacheEntry

	// persist and journal are the optional persistent tier; both nil in a
	// memory-only cache. journal records completed units for sweep resume.
	persist store.Store
	journal *store.Journal

	hits        atomic.Uint64
	diskHits    atomic.Uint64
	peerHits    atomic.Uint64
	misses      atomic.Uint64
	uncacheable atomic.Uint64
}

// NewReplicationCache returns an empty in-memory cache.
func NewReplicationCache() *ReplicationCache { return &ReplicationCache{} }

// NewPersistentCache returns a cache backed by st. The journal, when
// non-nil, receives one record per unit this process computes (disk hits
// are already on record from the run that computed them).
func NewPersistentCache(st store.Store, j *store.Journal) *ReplicationCache {
	return &ReplicationCache{persist: st, journal: j}
}

// replicationKey addresses one replication: the config's content hash plus
// the seed that drives every random stream of the run.
type replicationKey struct {
	sum  [sha256.Size]byte
	seed uint64
}

// cacheEntry is the rendezvous for one key. ready is closed when the
// computing caller finishes; res stays nil if that run failed (waiters
// then recompute for themselves).
type cacheEntry struct {
	ready chan struct{}
	res   *core.Result
}

// CacheStats is a point-in-time counter snapshot across both tiers.
type CacheStats struct {
	// Hits counts replications served from (or collapsed onto) an
	// in-memory result instead of being simulated or read from disk.
	Hits uint64
	// DiskHits counts replications decoded from a valid store entry.
	DiskHits uint64
	// PeerHits counts replications obtained by waiting on another
	// process's lease rather than duplicating its work.
	PeerHits uint64
	// Misses counts replications that were simulated.
	Misses uint64
	// Uncacheable counts replications that bypassed the cache because
	// their config carried opaque elements (funcs, undescribed factories).
	Uncacheable uint64
	// Quarantined counts corrupt store entries moved aside and recomputed;
	// StoreErrors counts store I/O failures (reads and writes), each of
	// which also degraded to recomputation or left the store cold.
	Quarantined, StoreErrors uint64
}

// HitRate returns the fraction of cacheable replications served without
// simulating, across both tiers; 0 when the cache saw no cacheable work.
func (s CacheStats) HitRate() float64 {
	served := s.Hits + s.DiskHits + s.PeerHits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *ReplicationCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:        c.hits.Load(),
		DiskHits:    c.diskHits.Load(),
		PeerHits:    c.peerHits.Load(),
		Misses:      c.misses.Load(),
		Uncacheable: c.uncacheable.Load(),
	}
	if c.persist != nil {
		ps := c.persist.Stats()
		st.Quarantined = ps.Quarantined
		st.StoreErrors = ps.ReadErrors + ps.WriteErrors
	}
	return st
}

// runner returns the per-replication function of one series of cfg
// through the cache, fingerprinting cfg once for all its replications.
// Simulated replications take their topology from topos. A nil cache
// runs topos.RunReplication directly.
func (c *ReplicationCache) runner(cfg core.Config, topos *core.TopologyTable) core.ReplicationFunc {
	if c == nil {
		return topos.RunReplication
	}
	fp := ConfigFingerprint(cfg)
	return func(ctx context.Context, cfg core.Config, rep int, seed uint64) (*core.Result, *core.ReplicationError) {
		return c.run(ctx, cfg, fp, rep, seed, topos)
	}
}

// run executes one replication through the cache. A nil cache or an
// uncacheable fingerprint degrades to a plain topos.RunReplication call.
// The replication index rep is reporting metadata only (it lands in
// ReplicationError) and is deliberately not part of the key.
func (c *ReplicationCache) run(ctx context.Context, cfg core.Config, fp Fingerprint, rep int, seed uint64, topos *core.TopologyTable) (*core.Result, *core.ReplicationError) {
	if c == nil {
		return topos.RunReplication(ctx, cfg, rep, seed)
	}
	if !fp.Cacheable() {
		c.uncacheable.Add(1)
		return topos.RunReplication(ctx, cfg, rep, seed)
	}
	key := replicationKey{sum: fp.sum, seed: seed}
	for {
		fresh := &cacheEntry{ready: make(chan struct{})}
		got, loaded := c.entries.LoadOrStore(key, fresh)
		if loaded {
			entry := got.(*cacheEntry)
			<-entry.ready
			if entry.res != nil {
				c.hits.Add(1)
				return entry.res, nil
			}
			// The computing caller failed and released the key; take
			// ownership on the next iteration and run it ourselves.
			continue
		}
		res, repErr := c.produce(ctx, cfg, fp, rep, seed, topos)
		if repErr != nil {
			// Release before waking waiters so their retry re-owns the key
			// instead of re-reading this dead entry.
			c.entries.Delete(key)
			close(fresh.ready)
			return nil, repErr
		}
		fresh.res = res
		close(fresh.ready)
		return res, nil
	}
}

// produce obtains the result for one key this process now owns in the
// memory tier: from the persistent store when one is attached, by
// simulation otherwise. Counters: exactly one of DiskHits, PeerHits, or
// Misses is incremented per successful call.
func (c *ReplicationCache) produce(ctx context.Context, cfg core.Config, fp Fingerprint, rep int, seed uint64, topos *core.TopologyTable) (*core.Result, *core.ReplicationError) {
	k, addressable := fp.StoreKey(seed)
	if c.persist == nil || !addressable {
		res, repErr := topos.RunReplication(ctx, cfg, rep, seed)
		if repErr == nil {
			c.misses.Add(1)
		}
		return res, repErr
	}
	return c.produceStored(ctx, k, cfg, rep, seed, topos)
}

// produceStored routes computation through the store's cross-process
// lease. It is separate from produce so that only this path moves the
// closure's captures to the heap. Simulation failures pass through typed;
// store-layer failures (I/O, a cancelled lease wait) degrade to a direct
// local run.
func (c *ReplicationCache) produceStored(ctx context.Context, k store.Key, cfg core.Config, rep int, seed uint64, topos *core.TopologyTable) (*core.Result, *core.ReplicationError) {
	var repErr *core.ReplicationError
	res, origin, err := c.persist.GetOrCompute(ctx, k, func() (*core.Result, error) {
		r, re := topos.RunReplication(ctx, cfg, rep, seed)
		if re != nil {
			repErr = re
			return nil, re
		}
		return r, nil
	})
	if repErr != nil {
		return nil, repErr
	}
	if err != nil {
		res, repErr := topos.RunReplication(ctx, cfg, rep, seed)
		if repErr == nil {
			c.misses.Add(1)
		}
		return res, repErr
	}
	switch origin {
	case store.OriginDisk:
		c.diskHits.Add(1)
	case store.OriginPeer:
		c.peerHits.Add(1)
	default:
		c.misses.Add(1)
		c.recordDone(ctx, k)
	}
	return res, nil
}

// recordDone journals one freshly computed-and-published unit. A failed
// append only costs resume bookkeeping — the result itself is already
// durable in the store — so it is deliberately not fatal.
func (c *ReplicationCache) recordDone(ctx context.Context, k store.Key) {
	if c.journal == nil {
		return
	}
	_ = c.journal.Append(ctx, k)
}
