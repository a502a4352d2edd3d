package experiment

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/store"
)

// figureCSV runs one small figure through the sweep with the given cache
// and returns its CSV bytes plus the cache stats.
func figureCSV(t *testing.T, cache *ReplicationCache) ([]byte, CacheStats) {
	t.Helper()
	fig := Figure1(Scale{Factor: 20})
	opts := core.Options{Replications: 2, GridPoints: 20, BaseSeed: 1}
	fr := runFigure(t, fig, opts, cache)
	var buf bytes.Buffer
	if err := fr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cache.Stats()
}

func openStore(t *testing.T, dir string, opts store.DiskOptions) *store.DiskStore {
	t.Helper()
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func openJournal(t *testing.T, s *store.DiskStore, resume bool) (*store.Journal, []store.Key) {
	t.Helper()
	j, done, err := store.OpenJournal(nil, s.JournalPath(), resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j, done
}

// TestPersistentCacheColdThenWarm is the persistence contract end to end:
// a second process-equivalent run against the same store simulates
// nothing, replays everything from disk, and produces byte-identical CSV
// output.
func TestPersistentCacheColdThenWarm(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()

	s1 := openStore(t, dir, store.DiskOptions{})
	j1, done := openJournal(t, s1, false)
	if len(done) != 0 {
		t.Fatalf("fresh journal replayed %d units", len(done))
	}
	cold, coldStats := figureCSV(t, NewPersistentCache(s1, j1))
	if coldStats.Misses == 0 {
		t.Fatal("cold run simulated nothing")
	}
	if coldStats.DiskHits != 0 {
		t.Fatalf("cold run claims %d disk hits", coldStats.DiskHits)
	}

	// "New process": fresh memory cache, same store directory.
	s2 := openStore(t, dir, store.DiskOptions{})
	j2, done := openJournal(t, s2, true)
	if uint64(len(done)) != coldStats.Misses {
		t.Errorf("journal replayed %d units, cold run computed %d", len(done), coldStats.Misses)
	}
	warm, warmStats := figureCSV(t, NewPersistentCache(s2, j2))
	if !bytes.Equal(cold, warm) {
		t.Error("warm run produced different CSV bytes than the cold run")
	}
	if warmStats.Misses != 0 {
		t.Errorf("warm run simulated %d replications", warmStats.Misses)
	}
	if warmStats.DiskHits != coldStats.Misses {
		t.Errorf("warm run: %d disk hits, want %d", warmStats.DiskHits, coldStats.Misses)
	}
}

// TestPersistentCacheCorruptEntryRecomputed: a bit-flipped entry under a
// warm store is quarantined and recomputed; output bytes are unchanged.
func TestPersistentCacheCorruptEntryRecomputed(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s1 := openStore(t, dir, store.DiskOptions{})
	cold, _ := figureCSV(t, NewPersistentCache(s1, nil))

	ffs := store.NewFaultFS(nil)
	s2 := openStore(t, dir, store.DiskOptions{FS: ffs})
	ffs.CorruptReadIn(1)
	warm, stats := figureCSV(t, NewPersistentCache(s2, nil))
	if !bytes.Equal(cold, warm) {
		t.Error("corruption changed output bytes")
	}
	if stats.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.Misses != 1 {
		t.Errorf("misses = %d, want exactly the quarantined unit recomputed", stats.Misses)
	}
}

// TestPersistentCacheUnwritableStoreStillAnswers: every write failing
// leaves the store cold but the sweep correct.
func TestPersistentCacheUnwritableStoreStillAnswers(t *testing.T) {
	t.Parallel()

	ref, _ := figureCSV(t, NewReplicationCache())

	ffs := store.NewFaultFS(nil)
	s := openStore(t, t.TempDir(), store.DiskOptions{FS: ffs})
	cache := NewPersistentCache(s, nil)
	// One failed publish proves the degradation path: the unit's result
	// is still served from memory and the store merely stays cold for it.
	// The rename failpoint is used because only object publication
	// renames — write faults could land on a lease file instead.
	ffs.FailRenameIn(1)
	got, stats := figureCSV(t, cache)
	if !bytes.Equal(ref, got) {
		t.Error("write-degraded store changed output bytes")
	}
	if stats.StoreErrors == 0 {
		t.Error("failed put not counted in StoreErrors")
	}
}

// TestUncacheableConfigBypassesStore: opaque configs never touch disk.
func TestUncacheableConfigBypassesStore(t *testing.T) {
	t.Parallel()

	s := openStore(t, t.TempDir(), store.DiskOptions{})
	cache := NewPersistentCache(s, nil)
	fig := Figure1(Scale{Factor: 20})
	for i := range fig.Series {
		fig.Series[i].Config.PostRun = func(*mms.ShardSet) {}
	}
	opts := core.Options{Replications: 2, GridPoints: 20, BaseSeed: 1}
	runFigure(t, fig, opts, cache)
	stats := cache.Stats()
	if stats.Uncacheable == 0 {
		t.Error("opaque config not counted as uncacheable")
	}
	if ps := s.Stats(); ps.Puts != 0 || ps.Misses != 0 {
		t.Errorf("uncacheable config touched the store: %+v", ps)
	}
}
