package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/virus"
)

// sweepUnitCensus counts the distinct and total (fingerprint, seed) units a
// sweep will schedule, i.e. the cache's expected misses and hits.
func sweepUnitCensus(t *testing.T, figs []Figure, opts core.Options) (unique, total int) {
	t.Helper()
	opts = opts.WithDefaults()
	seen := make(map[replicationKey]bool)
	for _, fig := range figs {
		for _, s := range fig.Series {
			fp := ConfigFingerprint(s.Config)
			if !fp.Cacheable() {
				t.Fatalf("%s / %s unexpectedly uncacheable: %s", fig.ID, s.Label, fp.Opacity())
			}
			for i := 0; i < opts.Replications; i++ {
				total++
				key := replicationKey{sum: fp.sum, seed: core.ReplicationSeed(opts.BaseSeed, i)}
				if !seen[key] {
					seen[key] = true
					unique++
				}
			}
		}
	}
	return unique, total
}

// Figure 4's education study carries the same four unprotected baselines as
// Figure 1, so sweeping both must simulate each shared series once per
// seed. Hit/miss counts depend only on which units are duplicates, never on
// scheduling, so they are exact.
func TestCacheDeduplicatesSharedSeries(t *testing.T) {
	t.Parallel()
	figs := []Figure{Figure1(testScale), Figure4(testScale)}
	unique, total := sweepUnitCensus(t, figs, testOpts)
	if unique == total {
		t.Fatalf("test premise broken: figures 1 and 4 share no units (%d unique of %d)", unique, total)
	}

	cache := NewReplicationCache()
	sr, err := RunSweep(context.Background(), figs, testOpts, SweepOptions{Jobs: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	st := sr.Cache
	if int(st.Misses) != unique || int(st.Hits) != total-unique {
		t.Errorf("cache counted %d misses / %d hits, want %d / %d",
			st.Misses, st.Hits, unique, total-unique)
	}
	if st.Uncacheable != 0 {
		t.Errorf("unexpected uncacheable count %d", st.Uncacheable)
	}
	if st.HitRate() <= 0 {
		t.Errorf("hit rate %v, want > 0", st.HitRate())
	}
}

// Concurrent requests for one key must collapse onto a single simulation:
// exactly one miss, everyone sharing the one Result.
func TestCacheCollapsesConcurrentRequests(t *testing.T) {
	t.Parallel()
	cfg := Scale{Factor: 20}.paperConfig(virus.Virus1())
	fp := ConfigFingerprint(cfg)
	if !fp.Cacheable() {
		t.Fatal(fp.Opacity())
	}
	cache := NewReplicationCache()
	const callers = 32
	results := make([]*core.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			res, repErr := cache.run(context.Background(), cfg, fp, 0, 1, nil)
			if repErr != nil {
				t.Errorf("caller %d: %v", g, repErr)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("counted %d misses / %d hits, want 1 / %d", st.Misses, st.Hits, callers-1)
	}
	for g := 1; g < callers; g++ {
		if results[g] != results[0] {
			t.Fatalf("caller %d received a different Result object", g)
		}
	}
}

// A failed replication must not poison the cache: the key is released, the
// failure reaches only the caller that ran it, and nothing counts as a hit
// or miss.
func TestCacheNeverStoresFailures(t *testing.T) {
	t.Parallel()
	cfg := Scale{Factor: 20}.paperConfig(virus.Virus1())
	buildErr := errors.New("graph build rigged to fail")
	cfg.CSRBuilder = func(*rng.Source) (*graph.CSR, error) { return nil, buildErr }
	// CSRBuilder makes the real fingerprint opaque; hand-build a
	// cacheable one to force the failing run through the caching path.
	fp := Fingerprint{ok: true}
	cache := NewReplicationCache()
	for attempt := 0; attempt < 2; attempt++ {
		res, repErr := cache.run(context.Background(), cfg, fp, 0, 1, nil)
		if repErr == nil || res != nil {
			t.Fatalf("attempt %d: rigged failure produced res=%v err=%v", attempt, res, repErr)
		}
		if !errors.Is(repErr.Err, buildErr) {
			t.Fatalf("attempt %d: error %v does not wrap the rigged failure", attempt, repErr.Err)
		}
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("failures were counted: %+v", st)
	}
	if _, loaded := cache.entries.Load(replicationKey{sum: fp.sum, seed: 1}); loaded {
		t.Error("failed key still resident in the cache")
	}
}

// A nil cache and an uncacheable fingerprint must both degrade to plain
// execution.
func TestCacheBypassPaths(t *testing.T) {
	t.Parallel()
	cfg := Scale{Factor: 20}.paperConfig(virus.Virus1())
	var nilCache *ReplicationCache
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats %+v, want zeros", st)
	}
	if res, repErr := nilCache.run(context.Background(), cfg, ConfigFingerprint(cfg), 0, 1, nil); repErr != nil || res == nil {
		t.Fatalf("nil cache run: res=%v err=%v", res, repErr)
	}

	cache := NewReplicationCache()
	var opaque Fingerprint // zero value: uncacheable
	if res, repErr := cache.run(context.Background(), cfg, opaque, 0, 1, nil); repErr != nil || res == nil {
		t.Fatalf("uncacheable run: res=%v err=%v", res, repErr)
	}
	if st := cache.Stats(); st.Uncacheable != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("uncacheable bypass counted %+v", st)
	}
}
