package workq

// Fault-injection tests: every failpoint store.FaultFS can fire on queue
// I/O — failed claim creates, refused appends, failed result puts, torn
// and corrupted manifest reads — must degrade to recomputation or a
// skipped pass, never to a wrong, duplicated, or lost unit. Each test
// drives one fault and then asserts the queue converges to the same
// terminal state a fault-free run reaches.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// faultQueue builds a queue whose I/O runs through a FaultFS, plus the
// handle to arm failpoints on.
func faultQueue(t *testing.T, dir string) (*Queue, *store.FaultFS) {
	t.Helper()
	ffs := store.NewFaultFS(store.OS)
	return openTestQueue(t, dir, ffs, QueueOptions{WorkerID: "faulty"}), ffs
}

// fastOpts keeps retry/poll delays out of the test's wall clock.
func fastOpts() WorkerOptions {
	return WorkerOptions{Poll: time.Millisecond, Backoff: time.Millisecond, BackoffMax: 2 * time.Millisecond}
}

// TestPutFaultLeavesUnitOpenWithOneFailure: the result's atomic rename
// into the store fails. Until the retry, the unit is open with exactly one
// failure line; the retry stores it, and the census counts it as retried.
func TestPutFaultLeavesUnitOpenWithOneFailure(t *testing.T) {
	t.Parallel()

	q, ffs := faultQueue(t, t.TempDir())
	units := testUnits(1)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()

	var mu sync.Mutex
	runs := 0
	ffs.FailRenameIn(1)
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		mu.Lock()
		runs++
		if runs == 2 && (q.Complete(u) || q.Attempts(u) != 1) {
			t.Errorf("after the failed put: complete=%v attempts=%d, want open with 1 failure line",
				q.Complete(u), q.Attempts(u))
		}
		mu.Unlock()
		return storeUnit(ctx, q, u)
	}, fastOpts())
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if !q.Complete(units[0]) || q.Dead(units[0]) {
		t.Fatal("unit not complete after a transient put fault")
	}
	if runs != 2 {
		t.Errorf("unit executed %d times, want 2 (original + post-fault retry)", runs)
	}
	if st.Completed != 1 || st.Retried != 1 {
		t.Errorf("stats = %+v, want 1 completed, 1 retried", st)
	}
	if p := q.Census(units); p.Done != 1 || p.Retried != 1 {
		t.Errorf("census = %+v, want one retried completion", p)
	}
}

// TestStoredUnitIsNeverClaimed: a unit whose entry the store already
// holds is complete before any worker looks at it, so no worker creates a
// claim for it. The armed claim failpoint proves no OpenExcl happened: it
// still fires on the first claim after the drain.
func TestStoredUnitIsNeverClaimed(t *testing.T) {
	t.Parallel()

	q, ffs := faultQueue(t, t.TempDir())
	units := testUnits(2)
	if err := q.WriteManifest(testSpec(), units[:1]); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()
	if err := storeUnit(context.Background(), q, units[0]); err != nil {
		t.Fatal(err)
	}
	ffs.FailOpenExclIn(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := RunWorker(ctx, q, m, func(ctx context.Context, u Unit) error {
		t.Errorf("executed stored unit %s", u.ID())
		cancel()
		return nil
	}, fastOpts())
	if err != nil || st != (WorkerStats{}) {
		t.Fatalf("drain of a stored unit: stats=%+v err=%v, want no work at all", st, err)
	}
	if claims, _ := filepath.Glob(filepath.Join(q.Dir(), "claims", "*")); len(claims) != 0 {
		t.Errorf("claims left behind: %v", claims)
	}
	if _, err := q.TryClaim(units[1]); !errors.Is(err, store.ErrInjected) {
		t.Errorf("claim failpoint already spent (next claim err = %v): the stored unit was claimed", err)
	}
}

// TestOtherCodecVersionEntryIsOpen: an entry from another codec version is
// not this binary's result. The unit stays open, is recomputed, and the
// overwrite completes it.
func TestOtherCodecVersionEntryIsOpen(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), nil, QueueOptions{WorkerID: "w"})
	units := testUnits(1)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()
	data, err := store.EncodeResult(&core.Result{})
	if err != nil {
		t.Fatal(err)
	}
	data[4]++ // the codec version byte
	id := units[0].ID()
	path := filepath.Join(q.st.Dir(), "objects", id[:2], id+".mvr")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if q.Complete(units[0]) {
		t.Fatal("entry of another codec version counts as complete")
	}
	if p := q.Census(units); p.Open != 1 {
		t.Errorf("census = %+v, want the unit open", p)
	}
	st, err := RunWorker(context.Background(), q, m, publish(q), fastOpts())
	if err != nil || st.Completed != 1 || !q.Complete(units[0]) {
		t.Fatalf("recompute over the old entry: stats=%+v err=%v complete=%v", st, err, q.Complete(units[0]))
	}
}

// TestClaimOpenFaultSkipsThenRecovers: an I/O error acquiring a claim (not
// an existence race) skips the unit for that pass; the next pass claims and
// completes it.
func TestClaimOpenFaultSkipsThenRecovers(t *testing.T) {
	t.Parallel()

	q, ffs := faultQueue(t, t.TempDir())
	units := testUnits(2)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()

	ffs.FailOpenExclIn(1)
	st, err := RunWorker(context.Background(), q, m, publish(q), fastOpts())
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if st.Completed != 2 {
		t.Errorf("completed = %d, want 2", st.Completed)
	}
	if st.QueueErrors != 1 {
		t.Errorf("queue errors = %d, want 1 (the injected claim failure)", st.QueueErrors)
	}
	for _, u := range units {
		if !q.Complete(u) {
			t.Errorf("unit %s not complete after claim fault", u.ID())
		}
	}
}

// TestFailureLogAppendFaultKeepsUnitOpen: when even recording a failure
// fails, the unit stays open — with its claim released — and a later pass
// completes it. A broken failure log never loses a unit.
func TestFailureLogAppendFaultKeepsUnitOpen(t *testing.T) {
	t.Parallel()

	q, ffs := faultQueue(t, t.TempDir())
	units := testUnits(1)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, _ := q.LoadManifest()

	var mu sync.Mutex
	runs := 0
	ffs.FailAppendIn(1)
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		mu.Lock()
		defer mu.Unlock()
		runs++
		if runs == 1 {
			return errors.New("transient compute failure")
		}
		return storeUnit(ctx, q, u)
	}, fastOpts())
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if !q.Complete(units[0]) || q.Dead(units[0]) {
		t.Fatal("unit lost after failure-log append fault")
	}
	if runs != 2 {
		t.Errorf("unit executed %d times, want 2", runs)
	}
	if st.QueueErrors != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 queue error and 1 completed", st)
	}
}

// TestManifestTornReadDegradesToIncomplete: a torn read of a good
// manifest is an error, never a shorter unit list; workers treat it as no
// manifest yet, and the next read recovers fully.
func TestManifestTornReadDegradesToIncomplete(t *testing.T) {
	t.Parallel()

	q, ffs := faultQueue(t, t.TempDir())
	units := testUnits(6)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}

	ffs.TruncateReadIn(1)
	if m, err := q.LoadManifest(); err == nil {
		t.Fatalf("torn manifest read loaded %d units", len(m.Units))
	}
	m, err := q.LoadManifest()
	if err != nil || len(m.Units) != len(units) {
		t.Fatalf("clean re-read: %v", err)
	}
}

// TestWorkerWaitsOutTornManifest: a worker that reads the manifest while
// torn keeps waiting and starts once it reads whole — the same wait a
// coordinator still publishing the manifest causes.
func TestWorkerWaitsOutTornManifest(t *testing.T) {
	t.Parallel()

	q, ffs := faultQueue(t, t.TempDir())
	units := testUnits(3)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}

	ffs.TruncateReadIn(1) // first load sees a torn document
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := WaitManifest(ctx, q, time.Millisecond)
	if err != nil {
		t.Fatalf("wait manifest: %v", err)
	}
	if len(m.Units) != len(units) {
		t.Fatalf("manifest after recovery: %d units, want %d", len(m.Units), len(units))
	}
	st, err := RunWorker(ctx, q, m, publish(q), fastOpts())
	if err != nil || st.Completed != uint64(len(units)) {
		t.Fatalf("drain after torn-manifest wait: stats=%+v err=%v", st, err)
	}
}
