package experiment

import (
	"bytes"
	"context"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/store"
	"repro/internal/workq"
)

func TestSelectStudies(t *testing.T) {
	t.Parallel()

	all, err := SelectStudies("all", testScale)
	if err != nil || len(all) != len(AllStudies(testScale)) {
		t.Fatalf("all: %d studies, err=%v", len(all), err)
	}
	one, err := SelectStudies("figure2", testScale)
	if err != nil || len(one) != 1 || one[0].ID != "figure2" {
		t.Fatalf("figure2: %+v err=%v", one, err)
	}
	if _, err := SelectStudies("figure99", testScale); err == nil {
		t.Fatal("unknown figure accepted")
	}
	// Every row's ID is its study's, so selecting a study by ID builds
	// the same study as the whole matrix does, and IDs are unique.
	seen := map[string]bool{}
	for i, row := range studyTable {
		got, err := SelectStudies(row.id, testScale)
		if err != nil || len(got) != 1 || got[0].ID != row.id || !reflect.DeepEqual(got[0].Claims, all[i].Claims) ||
			len(got[0].Series) != len(all[i].Series) {
			t.Errorf("row %d (%s): selected %+v, err=%v; want study %s", i, row.id, got, err, all[i].ID)
		}
		if seen[row.id] {
			t.Errorf("study ID %s appears twice", row.id)
		}
		seen[row.id] = true
	}
}

// TestSweepUnitsMatchesCacheCensus: the distributable unit list is exactly
// the cache's unique-unit census — same dedup of series shared across
// studies, same seeds — so distributing a sweep schedules precisely the
// work a serial cached sweep would simulate.
func TestSweepUnitsMatchesCacheCensus(t *testing.T) {
	t.Parallel()

	figs := []Figure{Figure1(testScale), Figure4(testScale)}
	unique, total := sweepUnitCensus(t, figs, testOpts)
	units, uncacheable := SweepUnits(figs, testOpts)
	if uncacheable != 0 {
		t.Errorf("uncacheable series = %d, want 0", uncacheable)
	}
	if len(units) != unique {
		t.Errorf("%d units enumerated, want %d (census of %d total)", len(units), unique, total)
	}
	seen := map[string]bool{}
	for i, u := range units {
		if u.Index != i {
			t.Errorf("unit %d has Index %d", i, u.Index)
		}
		if seen[u.ID()] {
			t.Errorf("unit %s enumerated twice", u.ID())
		}
		seen[u.ID()] = true
		if _, err := u.Key(); err != nil {
			t.Errorf("unit %d: %v", i, err)
		}
	}
	again, _ := SweepUnits(figs, testOpts)
	if !reflect.DeepEqual(units, again) {
		t.Error("SweepUnits is not deterministic")
	}
}

// TestSweepUnitsSkipsUncacheable: series whose configs cannot be
// fingerprinted are excluded from the unit list and counted, so the
// coordinator knows it must compute them locally.
func TestSweepUnitsSkipsUncacheable(t *testing.T) {
	t.Parallel()

	fig := Figure1(testScale)
	opaque := fig.Series[0]
	opaque.Label = "opaque"
	opaque.Config.PostRun = func(*mms.ShardSet) {} // opaque element
	fig.Series = append(fig.Series, opaque)
	units, uncacheable := SweepUnits([]Figure{fig}, testOpts)
	if uncacheable != 1 {
		t.Fatalf("uncacheable = %d, want 1", uncacheable)
	}
	wantUnits, _ := SweepUnits([]Figure{Figure1(testScale)}, testOpts)
	if len(units) != len(wantUnits) {
		t.Errorf("%d units with opaque series, want %d", len(units), len(wantUnits))
	}
}

// TestUnitRunnerPublishesIdenticalResult: executing a unit through the
// worker path stores byte-for-byte the result a direct RunReplication
// produces, and a second execution is a pure store read (no second Put).
func TestUnitRunnerPublishesIdenticalResult(t *testing.T) {
	t.Parallel()

	figs := []Figure{Figure6(testScale)}
	units, _ := SweepUnits(figs, testOpts)
	if len(units) == 0 {
		t.Fatal("no units")
	}
	u := units[0]

	ds, err := store.Open(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := UnitRunner(ds, nil, figs)
	ctx := context.Background()
	if err := run(ctx, u); err != nil {
		t.Fatalf("unit run: %v", err)
	}
	key, err := u.Key()
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := ds.Get(ctx, key)
	if err != nil || !ok {
		t.Fatalf("stored result: ok=%v err=%v", ok, err)
	}
	cfg := figs[0].Series[u.Series].Config
	want, repErr := core.RunReplication(ctx, cfg, u.Rep, u.Seed)
	if repErr != nil {
		t.Fatal(repErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("worker-published result differs from direct computation")
	}

	if err := run(ctx, u); err != nil {
		t.Fatalf("idempotent rerun: %v", err)
	}
	if st := ds.Stats(); st.Puts != 1 {
		t.Errorf("puts = %d after rerun, want 1 (second run must be a store read)", st.Puts)
	}
}

// TestUnitRunnerVersionSkew: a unit whose fingerprint is not derivable from
// this binary's study matrix fails loudly instead of publishing a result
// for a config it cannot verify.
func TestUnitRunnerVersionSkew(t *testing.T) {
	t.Parallel()

	figs := []Figure{Figure6(testScale)}
	units, _ := SweepUnits(figs, testOpts)
	u := units[0]
	u.FP = strings.Repeat("ab", 32) // a fingerprint no config hashes to

	ds, err := store.Open(t.TempDir(), store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = UnitRunner(ds, nil, figs)(context.Background(), u)
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("skewed unit: err = %v, want a version-skew error", err)
	}
}

// TestDistributedSweepAssemblesIdenticalCSV is the in-process end-to-end
// check: coordinator writes a manifest, an in-process worker drains it into
// the store, and assembly over the persistent cache emits CSV bytes
// identical to a plain serial sweep. The subprocess chaos test in
// cmd/mvfigures layers crashes on top of this same invariant.
func TestDistributedSweepAssemblesIdenticalCSV(t *testing.T) {
	t.Parallel()

	figs, err := SelectStudies("figure2", testScale)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	serial, err := RunSweep(ctx, figs, testOpts, SweepOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := serial.Figures[0].WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	storeDir := t.TempDir()
	spec := workq.Spec{Figure: "figure2", Reps: testOpts.Replications, BaseSeed: 1, Scale: testScale.Factor, Grid: testOpts.GridPoints}
	units, uncacheable := SweepUnits(figs, testOpts)
	if uncacheable != 0 || len(units) == 0 {
		t.Fatalf("units=%d uncacheable=%d", len(units), uncacheable)
	}
	q, err := workq.OpenQueue(ds(t, storeDir), workq.QueueOptions{WorkerID: "coord"})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.WriteManifest(spec, units); err != nil {
		t.Fatal(err)
	}
	st, err := RunSweepWorker(ctx, WorkerConfig{StoreDir: storeDir, ID: "w1"})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if st.Completed != uint64(len(units)) {
		t.Errorf("worker completed %d of %d units", st.Completed, len(units))
	}
	if prog := q.Census(units); prog.Done != len(units) || prog.Open != 0 || prog.Dead != 0 {
		t.Fatalf("census after drain = %+v", prog)
	}

	ps, err := OpenPersistentSweep(storeDir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps.Close() }()
	assembled, err := RunSweep(ctx, figs, testOpts, SweepOptions{Jobs: 4, Cache: ps.Cache})
	if err != nil {
		t.Fatal(err)
	}
	if cs := assembled.Cache; cs.Misses != 0 {
		t.Errorf("assembly recomputed %d units; every unit should be a store hit", cs.Misses)
	}
	var got bytes.Buffer
	if err := assembled.Figures[0].WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("distributed assembly CSV differs from serial sweep")
	}

	// Unit IDs and store keys agree by construction; spot-check the store
	// actually holds every unit under its manifest identity.
	for _, u := range units {
		key, _ := u.Key()
		if hexSum := u.FP; hexSum != hex.EncodeToString(key.Sum[:]) {
			t.Fatalf("unit %d fingerprint mismatch", u.Index)
		}
		if _, ok, _ := ds(t, storeDir).Get(ctx, key); !ok {
			t.Errorf("unit %s missing from store after drain", u.ID())
		}
	}
}

// ds opens a read handle on an existing store directory.
func ds(t *testing.T, dir string) *store.DiskStore {
	t.Helper()
	s, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}
