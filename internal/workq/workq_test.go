package workq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/store"
)

func testSpec() Spec {
	return Spec{Figure: "figure2", Reps: 3, BaseSeed: 1, Scale: 10, Grid: 40}
}

// testUnits builds n units with distinct, well-formed fingerprints.
func testUnits(n int) []Unit {
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{
			Index:  i,
			Fig:    "figure2",
			Series: i % 3,
			Rep:    i / 3,
			FP:     fmt.Sprintf("%064x", i+1),
			Seed:   uint64(1000 + i),
		}
	}
	return units
}

// openTestQueue opens a queue on the store at dir, doing its I/O through
// fsys (the real filesystem when nil).
func openTestQueue(t *testing.T, dir string, fsys store.FS, o QueueOptions) *Queue {
	t.Helper()
	st, err := store.Open(dir, store.DiskOptions{FS: fsys})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	q, err := OpenQueue(st, o)
	if err != nil {
		t.Fatalf("open queue: %v", err)
	}
	return q
}

// storeUnit publishes a result for u, which is what completes it.
func storeUnit(ctx context.Context, q *Queue, u Unit) error {
	k, err := u.Key()
	if err != nil {
		return err
	}
	return q.st.Put(ctx, k, &core.Result{FinalInfected: u.Index})
}

// publish is the RunFunc of a healthy worker: store the unit's result.
func publish(q *Queue) RunFunc {
	return func(ctx context.Context, u Unit) error { return storeUnit(ctx, q, u) }
}

func TestManifestRoundTrip(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{})
	spec, units := testSpec(), testUnits(7)
	if err := q.WriteManifest(spec, units); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	m, err := q.LoadManifest()
	if err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	if m.Spec != spec {
		t.Errorf("spec round-trip: got %+v, want %+v", m.Spec, spec)
	}
	if !reflect.DeepEqual(m.Units, units) {
		t.Errorf("units round-trip mismatch:\ngot  %+v\nwant %+v", m.Units, units)
	}
}

func TestLoadManifestMissingFile(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{})
	_, err := q.LoadManifest()
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: err = %v, want fs.ErrNotExist", err)
	}
}

// TestManifestEveryTruncationIsSafe: the manifest is one document, so a
// file cut at ANY byte offset fails to load. A reader never sees a prefix
// of the unit list as if it were the whole sweep.
func TestManifestEveryTruncationIsSafe(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{})
	if err := q.WriteManifest(testSpec(), testUnits(5)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(q.ManifestPath())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data)-1; cut++ { // the last byte is the newline
		if err := os.WriteFile(q.ManifestPath(), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := q.LoadManifest(); err == nil {
			t.Fatalf("cut at %d/%d bytes loaded %d units", cut, len(data), len(m.Units))
		}
	}
}

// TestManifestWriteFaultsNeverPublishPartial arms each write-path
// failpoint on the manifest's publication: the write fails, and the file
// then loads as absent or as the previous manifest, never a partial one.
func TestManifestWriteFaultsNeverPublishPartial(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		arm  func(*store.FaultFS)
	}{
		{"write error", func(f *store.FaultFS) { f.FailWriteIn(1) }},
		{"short write", func(f *store.FaultFS) { f.ShortWriteIn(1) }},
		{"fsync error", func(f *store.FaultFS) { f.FailSyncIn(1) }},
		{"rename error", func(f *store.FaultFS) { f.FailRenameIn(1) }},
	}
	for _, tc := range tests {
		for _, previous := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/previous=%v", tc.name, previous), func(t *testing.T) {
				t.Parallel()
				ffs := store.NewFaultFS(store.OS)
				q := openTestQueue(t, t.TempDir(), ffs, QueueOptions{})
				old := Spec{Figure: "figure1", Reps: 2, BaseSeed: 7, Scale: 20, Grid: 10}
				if previous {
					if err := q.WriteManifest(old, testUnits(2)); err != nil {
						t.Fatal(err)
					}
				}
				tc.arm(ffs)
				if err := q.WriteManifest(testSpec(), testUnits(6)); err == nil {
					t.Fatal("manifest write under an armed failpoint reported success")
				}
				m, err := q.LoadManifest()
				switch {
				case !previous && !errors.Is(err, os.ErrNotExist):
					t.Errorf("failed first write: load = %v, want fs.ErrNotExist", err)
				case previous && (err != nil || m.Spec != old || !reflect.DeepEqual(m.Units, testUnits(2))):
					t.Errorf("failed rewrite: load = %+v, %v; want the previous manifest", m, err)
				}
			})
		}
	}
}

func TestQueueClaimLifecycle(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	qa := openTestQueue(t, dir, nil, QueueOptions{WorkerID: "a"})
	qb := openTestQueue(t, dir, nil, QueueOptions{WorkerID: "b"})
	u := testUnits(1)[0]

	ok, err := qa.TryClaim(u)
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}
	// The owner is this live process on this host: b must lose the race.
	ok, err = qb.TryClaim(u)
	if err != nil || ok {
		t.Fatalf("claim against a live owner: ok=%v err=%v", ok, err)
	}
	qa.Release(u)
	ok, err = qb.TryClaim(u)
	if err != nil || !ok {
		t.Fatalf("claim after release: ok=%v err=%v", ok, err)
	}
	if err := storeUnit(context.Background(), qb, u); err != nil {
		t.Fatalf("store: %v", err)
	}
	if !qa.Complete(u) || qa.Dead(u) {
		t.Error("stored unit not visible as complete (or visible as dead)")
	}
	p := qa.Census([]Unit{u})
	if p.Done != 1 || p.Open != 0 || p.Dead != 0 || p.Retried != 0 {
		t.Errorf("census = %+v, want exactly one first-try completion", p)
	}
}

// TestClaimTakeoverDeadOwnerSameHost: a claim whose recorded pid is dead is
// broken immediately by a same-host worker — the SIGKILLed-worker fast path.
func TestClaimTakeoverDeadOwnerSameHost(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	qa := openTestQueue(t, dir, nil, QueueOptions{Hostname: "hostA", WorkerID: "victim"})
	qb := openTestQueue(t, dir, nil, QueueOptions{
		Hostname: "hostA",
		WorkerID: "heir",
		Alive:    func(pid int) bool { return false }, // the owner "died"
	})
	u := testUnits(1)[0]
	if ok, err := qa.TryClaim(u); err != nil || !ok {
		t.Fatalf("victim claim: ok=%v err=%v", ok, err)
	}
	ok, err := qb.TryClaim(u)
	if err != nil || !ok {
		t.Fatalf("takeover of dead owner's claim: ok=%v err=%v", ok, err)
	}
}

// TestClaimForeignHostWaitsForTTL: the pid probe is meaningless across
// hosts, so a foreign claim holds until the TTL expires — even when the
// local probe of that (foreign) pid says dead.
func TestClaimForeignHostWaitsForTTL(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	qa := openTestQueue(t, dir, nil, QueueOptions{Hostname: "hostA"})
	u := testUnits(1)[0]
	if ok, err := qa.TryClaim(u); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}

	dead := func(pid int) bool { return false }
	qb := openTestQueue(t, dir, nil, QueueOptions{Hostname: "hostB", Alive: dead})
	if ok, err := qb.TryClaim(u); err != nil || ok {
		t.Fatalf("foreign claim broken before TTL: ok=%v err=%v", ok, err)
	}

	// The same worker with its clock past the TTL may break it.
	future := clock.Fixed(time.Now().Add(2 * time.Hour))
	qc := openTestQueue(t, dir, nil, QueueOptions{
		Hostname: "hostB", Alive: dead, Clock: future, TTL: time.Hour,
	})
	if ok, err := qc.TryClaim(u); err != nil || !ok {
		t.Fatalf("foreign claim not broken after TTL: ok=%v err=%v", ok, err)
	}
}

// TestHeartbeatRenewsClaim: heartbeats refresh the claim's mtime, so a
// claim that would have aged past the TTL stays live as long as its owner
// keeps beating.
func TestHeartbeatRenewsClaim(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	// Foreign hostname so staleness is decided by the TTL alone.
	qa := openTestQueue(t, dir, nil, QueueOptions{Hostname: "elsewhere"})
	u := testUnits(1)[0]
	if ok, err := qa.TryClaim(u); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	info, err := os.Stat(qa.claimPath(u))
	if err != nil {
		t.Fatal(err)
	}
	birth := info.ModTime()

	const ttl = 40 * time.Millisecond
	frozen := clock.Fixed(birth.Add(ttl + time.Millisecond))
	qb := openTestQueue(t, dir, nil, QueueOptions{
		Hostname: "breaker", TTL: ttl, Clock: frozen,
		Alive: func(pid int) bool { return false },
	})
	if !qb.leases.Stale(qb.claimPath(u)) {
		t.Fatal("claim aged past the TTL not seen as stale")
	}
	time.Sleep(50 * time.Millisecond)
	if err := qa.Heartbeat(u); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	// Same breaker, same frozen clock: the renewed mtime is now ahead of
	// the breaker's notion of now, so the claim is fresh again.
	if qb.leases.Stale(qb.claimPath(u)) {
		t.Error("heartbeat-renewed claim still seen as stale")
	}
}

// TestDuplicateClaimRaceOneWinner: concurrent claimers on one unit resolve
// to exactly one owner — O_EXCL is the arbiter.
func TestDuplicateClaimRaceOneWinner(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	u := testUnits(1)[0]
	const racers = 8
	wins := make(chan bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := openTestQueue(t, dir, nil, QueueOptions{WorkerID: fmt.Sprintf("racer-%d", i)})
			ok, err := q.TryClaim(u)
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
			}
			wins <- ok
		}(i)
	}
	wg.Wait()
	close(wins)
	won := 0
	for ok := range wins {
		if ok {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d racers won the claim, want exactly 1", won)
	}
}

func TestAttemptBudgetAndDeadLetter(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{WorkerID: "w"})
	u := testUnits(1)[0]
	for i := 1; i <= 3; i++ {
		if err := q.RecordFailure(u, fmt.Errorf("boom %d", i)); err != nil {
			t.Fatalf("record failure %d: %v", i, err)
		}
		if got := q.Attempts(u); got != i {
			t.Fatalf("attempts after %d failures = %d", i, got)
		}
	}
	if err := q.DeadLetter(u, errors.New("budget spent")); err != nil {
		t.Fatalf("dead-letter: %v", err)
	}
	if !q.Dead(u) {
		t.Fatal("dead-lettered unit not Dead")
	}
	if q.Attempts(u) != 0 {
		t.Error("failure log survived the dead-letter rename")
	}
	data, err := os.ReadFile(filepath.Join(q.Dir(), "dead", u.ID()))
	if err != nil {
		t.Fatalf("read dead letter: %v", err)
	}
	if got := strings.Count(string(data), "\n"); got != 3 {
		t.Errorf("dead letter preserves %d attempt lines, want 3", got)
	}
	p := q.Census([]Unit{u})
	if p.Dead != 1 || p.Open != 0 || p.Done != 0 {
		t.Errorf("census = %+v, want one dead unit", p)
	}
}

// TestDeadLetterSyncsDeadDir pins the crash-consistency fix the
// atomicproto lint rule surfaced: the rename of the failure log into
// dead/ must be followed by a directory sync, or a crash can roll the
// rename back and resurrect the unit on every worker.
func TestDeadLetterSyncsDeadDir(t *testing.T) {
	t.Parallel()

	ffs := store.NewFaultFS(store.OS)
	q := openTestQueue(t, t.TempDir(), ffs, QueueOptions{WorkerID: "w"})
	u := testUnits(1)[0]
	if err := q.RecordFailure(u, errors.New("boom")); err != nil {
		t.Fatalf("record failure: %v", err)
	}
	before := ffs.SyncDirs
	if err := q.DeadLetter(u, errors.New("budget spent")); err != nil {
		t.Fatalf("dead-letter: %v", err)
	}
	if ffs.SyncDirs <= before {
		t.Fatalf("DeadLetter renamed into dead/ without syncing the directory (SyncDirs %d -> %d)", before, ffs.SyncDirs)
	}
	if !q.Dead(u) {
		t.Fatal("dead-lettered unit not Dead")
	}
}

// TestCensusCompleteWinsOverDead: a unit that dead-lettered once but was
// later stored by another worker counts as complete — its result is
// durable. A complete unit counts as retried while its failure log
// remains.
func TestCensusCompleteWinsOverDead(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{WorkerID: "w"})
	units := testUnits(2)
	if err := q.DeadLetter(units[0], errors.New("first life")); err != nil {
		t.Fatal(err)
	}
	if err := q.RecordFailure(units[1], errors.New("transient")); err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if err := storeUnit(context.Background(), q, u); err != nil {
			t.Fatal(err)
		}
	}
	p := q.Census(units)
	if p.Done != 2 || p.Dead != 0 || p.Open != 0 || p.Retried != 1 {
		t.Errorf("census = %+v, want both complete and the one with a failure log retried", p)
	}
}

func TestRunWorkerDrainsManifest(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	q := openTestQueue(t, dir, nil, QueueOptions{WorkerID: "solo"})
	units := testUnits(9)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, err := q.LoadManifest()
	if err != nil {
		t.Fatalf("load: %v", err)
	}

	var mu sync.Mutex
	runs := map[string]int{}
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		mu.Lock()
		runs[u.ID()]++
		mu.Unlock()
		return storeUnit(ctx, q, u)
	}, WorkerOptions{})
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if st.Completed != uint64(len(units)) || st.DeadLettered != 0 {
		t.Errorf("stats = %+v, want %d completed", st, len(units))
	}
	for _, u := range units {
		if !q.Complete(u) {
			t.Errorf("unit %s not complete", u.ID())
		}
		if runs[u.ID()] != 1 {
			t.Errorf("unit %s executed %d times, want 1", u.ID(), runs[u.ID()])
		}
	}
	p := q.Census(units)
	if p.Done != len(units) || p.Open != 0 || p.Retried != 0 {
		t.Errorf("census = %+v", p)
	}
}

func TestRunWorkerRetriesThenDeadLetters(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	q := openTestQueue(t, dir, nil, QueueOptions{WorkerID: "w"})
	units := testUnits(3)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()

	poison := units[1].ID()
	var mu sync.Mutex
	runs := map[string]int{}
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		mu.Lock()
		runs[u.ID()]++
		mu.Unlock()
		if u.ID() == poison {
			return errors.New("always fails")
		}
		return storeUnit(ctx, q, u)
	}, WorkerOptions{MaxAttempts: 3, Backoff: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if st.Completed != 2 || st.DeadLettered != 1 || st.Retried != 2 {
		t.Errorf("stats = %+v, want 2 completed, 1 dead-lettered, 2 retried", st)
	}
	if runs[poison] != 3 {
		t.Errorf("poison unit executed %d times, want exactly MaxAttempts=3", runs[poison])
	}
	if !q.Dead(units[1]) || q.Complete(units[1]) {
		t.Error("poison unit not dead-lettered")
	}
	if !q.Complete(units[0]) || !q.Complete(units[2]) {
		t.Error("healthy units not complete")
	}
}

// TestRunWorkerCountsUnstoredSuccessAsFailure: a run that returns nil
// without storing the result has not completed the unit; it spends
// attempts and dead-letters instead of being claimed again forever.
func TestRunWorkerCountsUnstoredSuccessAsFailure(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{WorkerID: "w"})
	units := testUnits(1)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error { return nil },
		WorkerOptions{MaxAttempts: 2, Backoff: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if st.Completed != 0 || st.DeadLettered != 1 || !q.Dead(units[0]) {
		t.Errorf("stats = %+v, dead = %v; want the unit dead-lettered, none completed", st, q.Dead(units[0]))
	}
}

// TestTwoWorkersSplitQueueWithoutDuplicates: two live workers draining the
// same queue execute every unit exactly once between them — live claims are
// never stolen, and every unit ends complete.
func TestTwoWorkersSplitQueueWithoutDuplicates(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	coord := openTestQueue(t, dir, nil, QueueOptions{WorkerID: "coord"})
	units := testUnits(20)
	if err := coord.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	runs := map[string]int{}
	run := func(ctx context.Context, u Unit) error {
		mu.Lock()
		runs[u.ID()]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // let the other worker interleave
		return storeUnit(ctx, coord, u)
	}
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := openTestQueue(t, dir, nil, QueueOptions{WorkerID: fmt.Sprintf("w%d", i)})
			m, err := q.LoadManifest()
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			st, err := RunWorker(context.Background(), q, m, run, WorkerOptions{Poll: 2 * time.Millisecond})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()

	total := uint64(0)
	for _, st := range stats {
		total += st.Completed
	}
	if total != uint64(len(units)) {
		t.Errorf("workers completed %d units, want %d", total, len(units))
	}
	for _, u := range units {
		if runs[u.ID()] != 1 {
			t.Errorf("unit %s executed %d times, want 1", u.ID(), runs[u.ID()])
		}
		if !coord.Complete(u) {
			t.Errorf("unit %s not complete", u.ID())
		}
	}
}

// missOneOpen hides the next Open through it, as if the entry were not
// there yet.
type missOneOpen struct {
	store.FS
	miss atomic.Bool
}

func (m *missOneOpen) Open(path string) (io.ReadCloser, error) {
	if m.miss.CompareAndSwap(true, false) {
		return nil, fs.ErrNotExist
	}
	return m.FS.Open(path)
}

// TestClaimedUnitStoredMeanwhileIsNotRun checks the completion re-check
// after a claim: a unit another worker stores (and releases) between this
// worker's scan and its claim is released again, not run a second time.
func TestClaimedUnitStoredMeanwhileIsNotRun(t *testing.T) {
	t.Parallel()

	fsys := &missOneOpen{FS: store.OS}
	q := openTestQueue(t, t.TempDir(), fsys, QueueOptions{WorkerID: "late"})
	units := testUnits(1)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, err := q.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := storeUnit(context.Background(), q, units[0]); err != nil {
		t.Fatal(err)
	}
	fsys.miss.Store(true) // the scan's completion check misses the entry
	runs := 0
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		runs++
		return storeUnit(ctx, q, u)
	}, WorkerOptions{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 0 || st.Completed != 0 {
		t.Errorf("stored unit ran %d times (stats %+v), want 0", runs, st)
	}
	if _, err := q.fsys.Stat(q.claimPath(units[0])); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("claim left behind: stat err %v", err)
	}
}

// TestReopenedUnitStillRuns checks the final re-check of units a worker
// marked finished: a unit seen complete whose entry is later quarantined as
// corrupt is open again, and the worker runs it before returning.
func TestReopenedUnitStillRuns(t *testing.T) {
	t.Parallel()

	units := testUnits(2)
	reopen, other := units[0], units[1]
	// Pick an ID whose scan sees reopen first, so it is marked complete
	// before other's run corrupts it.
	id := ""
	for i := 0; id == "" || scanStart(id, len(units)) != reopen.Index; i++ {
		id = fmt.Sprintf("w%d", i)
	}
	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{WorkerID: id})
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, err := q.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := storeUnit(ctx, q, reopen); err != nil {
		t.Fatal(err)
	}
	k, err := reopen.Key()
	if err != nil {
		t.Fatal(err)
	}
	runs := map[int]int{}
	_, err = RunWorker(ctx, q, m, func(ctx context.Context, u Unit) error {
		runs[u.Index]++
		if u == other && runs[u.Index] == 1 {
			// Corrupt reopen's entry; the Get that reads it quarantines it.
			path := filepath.Join(q.st.Dir(), "objects", k.String()[:2], k.String()+".mvr")
			if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
				return err
			}
			if _, ok, err := q.st.Get(ctx, k); ok || err != nil {
				return fmt.Errorf("corrupt entry read back: ok=%v err=%v", ok, err)
			}
			if q.Complete(reopen) {
				return errors.New("quarantined unit still complete")
			}
		}
		return storeUnit(ctx, q, u)
	}, WorkerOptions{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if runs[reopen.Index] != 1 || runs[other.Index] != 1 {
		t.Errorf("runs %v, want each unit once", runs)
	}
	for _, u := range units {
		if !q.Complete(u) {
			t.Errorf("unit %s not complete", u.ID())
		}
	}
}

// TestWorkersStartScanAtDifferentUnits checks that a worker's scan
// starts at a unit picked by its ID and wraps around the manifest: two
// workers with different IDs, each draining its own copy of one
// manifest, run different units first and every unit once, in manifest
// order from there.
func TestWorkersStartScanAtDifferentUnits(t *testing.T) {
	t.Parallel()

	units := testUnits(20)
	first := map[string]int{}
	for _, id := range []string{"w0", "w1"} {
		q := openTestQueue(t, t.TempDir(), nil, QueueOptions{WorkerID: id})
		if err := q.WriteManifest(testSpec(), units); err != nil {
			t.Fatal(err)
		}
		m, err := q.LoadManifest()
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		if _, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
			order = append(order, u.Index)
			return storeUnit(ctx, q, u)
		}, WorkerOptions{}); err != nil {
			t.Fatalf("worker %s: %v", id, err)
		}
		if len(order) != len(units) {
			t.Fatalf("worker %s ran %d units, want %d", id, len(order), len(units))
		}
		for i, idx := range order {
			if want := (order[0] + i) % len(units); idx != want {
				t.Fatalf("worker %s ran unit %d at step %d, want %d (order %v)", id, idx, i, want, order)
			}
		}
		first[id] = order[0]
	}
	if first["w0"] == first["w1"] {
		t.Errorf("workers w0 and w1 both start at unit %d", first["w0"])
	}
}

func TestConflictSkipHalvesTheRest(t *testing.T) {
	t.Parallel()

	for _, tc := range []struct{ left, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {10, 5}, {87, 43},
	} {
		if got := conflictSkip(tc.left); got != tc.want {
			t.Errorf("conflictSkip(%d) = %d, want %d", tc.left, got, tc.want)
		}
	}
}

func TestWaitManifest(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	q := openTestQueue(t, dir, nil, QueueOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := WaitManifest(ctx, q, time.Millisecond); err == nil {
		t.Fatal("WaitManifest returned without a manifest")
	}

	// A manifest appearing mid-wait is picked up.
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = q.WriteManifest(testSpec(), testUnits(2))
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	m, err := WaitManifest(ctx2, q, time.Millisecond)
	if err != nil {
		t.Fatalf("WaitManifest: %v", err)
	}
	if len(m.Units) != 2 {
		t.Errorf("manifest: %d units, want 2", len(m.Units))
	}
}

func TestQueueResetClearsState(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{})
	units := testUnits(2)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	if ok, _ := q.TryClaim(units[0]); !ok {
		t.Fatal("claim")
	}
	if err := q.RecordFailure(units[1], errors.New("x")); err != nil {
		t.Fatal(err)
	}
	if err := storeUnit(context.Background(), q, units[1]); err != nil {
		t.Fatal(err)
	}
	if err := q.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if _, err := q.LoadManifest(); !errors.Is(err, os.ErrNotExist) {
		t.Error("manifest survived reset")
	}
	if q.Attempts(units[1]) != 0 {
		t.Error("queue state survived reset")
	}
	if !q.Complete(units[1]) {
		t.Error("reset dropped a stored unit's completion: store entries are not queue state")
	}
	if ok, err := q.TryClaim(units[0]); err != nil || !ok {
		t.Errorf("claim after reset: ok=%v err=%v", ok, err)
	}
}

func TestBackoffDelayDoublesAndCaps(t *testing.T) {
	t.Parallel()

	base, max := 250*time.Millisecond, 5*time.Second
	want := []time.Duration{
		250 * time.Millisecond, 500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := backoffDelay(base, max, i+1); got != w {
			t.Errorf("attempt %d: delay = %v, want %v", i+1, got, w)
		}
	}
}
