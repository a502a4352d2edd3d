package workq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
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

func openTestQueue(t *testing.T, dir string, o QueueOptions) *Queue {
	t.Helper()
	q, err := OpenQueue(dir, o)
	if err != nil {
		t.Fatalf("open queue: %v", err)
	}
	return q
}

func TestManifestRoundTrip(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	spec, units := testSpec(), testUnits(7)
	if err := WriteManifest(nil, path, spec, units); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	m, err := LoadManifest(nil, path)
	if err != nil {
		t.Fatalf("load manifest: %v", err)
	}
	if !m.Complete {
		t.Fatal("freshly written manifest not Complete")
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

	_, err := LoadManifest(nil, filepath.Join(t.TempDir(), "absent.jsonl"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest: err = %v, want fs.ErrNotExist", err)
	}
}

// TestManifestEveryTruncationIsSafe is the torn-tail acceptance criterion:
// a coordinator killed at ANY byte offset of the manifest write leaves a
// file that loads without error, is reported incomplete, and whose parsed
// units are exactly a prefix of the real unit list — never a wrong or
// phantom unit.
func TestManifestEveryTruncationIsSafe(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	full := filepath.Join(dir, "manifest.jsonl")
	spec, units := testSpec(), testUnits(5)
	if err := WriteManifest(nil, full, spec, units); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(nil, torn)
		if err != nil {
			t.Fatalf("cut at %d/%d bytes: load error %v", cut, len(data), err)
		}
		if m.Complete != (cut == len(data)) {
			t.Fatalf("cut at %d/%d bytes: Complete=%v", cut, len(data), m.Complete)
		}
		if len(m.Units) > len(units) {
			t.Fatalf("cut at %d: %d units parsed from a %d-unit manifest", cut, len(m.Units), len(units))
		}
		for i, u := range m.Units {
			if !reflect.DeepEqual(u, units[i]) {
				t.Fatalf("cut at %d: unit %d corrupted: got %+v want %+v", cut, i, u, units[i])
			}
		}
	}
}

// TestManifestCorruptLineEndsReplay: a bit-flipped line mid-file (not just
// a torn tail) fails its CRC and ends the replay at the last good record.
func TestManifestCorruptLineEndsReplay(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "manifest.jsonl")
	units := testUnits(4)
	if err := WriteManifest(nil, path, testSpec(), units); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the third unit's line (header + 2 units precede).
	lines := strings.SplitAfter(string(data), "\n")
	mid := []byte(lines[3])
	mid[len(mid)/2] ^= 0x40
	lines[3] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Complete {
		t.Error("manifest with corrupt interior line reported Complete")
	}
	if len(m.Units) > 2 {
		t.Errorf("replay continued past the corrupt line: %d units", len(m.Units))
	}
	for i, u := range m.Units {
		if !reflect.DeepEqual(u, units[i]) {
			t.Errorf("unit %d corrupted: %+v", i, u)
		}
	}
}

func TestQueueClaimLifecycle(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	qa := openTestQueue(t, dir, QueueOptions{WorkerID: "a"})
	qb := openTestQueue(t, dir, QueueOptions{WorkerID: "b"})
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
	if err := qb.Ack(context.Background(), u, 1); err != nil {
		t.Fatalf("ack: %v", err)
	}
	if !qb.Acked(u) || qa.Dead(u) {
		t.Error("acked unit not visible as acked (or visible as dead)")
	}
	p := qa.Census([]Unit{u})
	if p.Acked != 1 || p.Open != 0 || p.Dead != 0 || p.Retried != 0 {
		t.Errorf("census = %+v, want exactly one first-try ack", p)
	}
}

// TestClaimTakeoverDeadOwnerSameHost: a claim whose recorded pid is dead is
// broken immediately by a same-host worker — the SIGKILLed-worker fast path.
func TestClaimTakeoverDeadOwnerSameHost(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	qa := openTestQueue(t, dir, QueueOptions{Hostname: "hostA", WorkerID: "victim"})
	qb := openTestQueue(t, dir, QueueOptions{
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
	qa := openTestQueue(t, dir, QueueOptions{Hostname: "hostA"})
	u := testUnits(1)[0]
	if ok, err := qa.TryClaim(u); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}

	dead := func(pid int) bool { return false }
	qb := openTestQueue(t, dir, QueueOptions{Hostname: "hostB", Alive: dead})
	if ok, err := qb.TryClaim(u); err != nil || ok {
		t.Fatalf("foreign claim broken before TTL: ok=%v err=%v", ok, err)
	}

	// The same worker with its clock past the TTL may break it.
	future := clock.Fixed(time.Now().Add(2 * time.Hour))
	qc := openTestQueue(t, dir, QueueOptions{
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
	qa := openTestQueue(t, dir, QueueOptions{Hostname: "elsewhere"})
	u := testUnits(1)[0]
	if ok, err := qa.TryClaim(u); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	info, err := os.Stat(filepath.Join(dir, "claims", u.ID()+".claim"))
	if err != nil {
		t.Fatal(err)
	}
	birth := info.ModTime()

	const ttl = 40 * time.Millisecond
	frozen := clock.Fixed(birth.Add(ttl + time.Millisecond))
	qb := openTestQueue(t, dir, QueueOptions{
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
			q := openTestQueue(t, dir, QueueOptions{WorkerID: fmt.Sprintf("racer-%d", i)})
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

	q := openTestQueue(t, t.TempDir(), QueueOptions{WorkerID: "w"})
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
	if p.Dead != 1 || p.Open != 0 || p.Acked != 0 {
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
	q := openTestQueue(t, t.TempDir(), QueueOptions{WorkerID: "w", FS: ffs})
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

// TestCensusAckedWinsOverDead: a unit that dead-lettered once but was later
// completed by another worker counts as complete — its result is durable.
func TestCensusAckedWinsOverDead(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), QueueOptions{WorkerID: "w"})
	u := testUnits(1)[0]
	if err := q.DeadLetter(u, errors.New("first life")); err != nil {
		t.Fatal(err)
	}
	if err := q.Ack(context.Background(), u, 2); err != nil {
		t.Fatal(err)
	}
	p := q.Census([]Unit{u})
	if p.Acked != 1 || p.Dead != 0 || p.Retried != 1 {
		t.Errorf("census = %+v, want the ack to win and count as retried", p)
	}
}

func TestRunWorkerDrainsManifest(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	q := openTestQueue(t, dir, QueueOptions{WorkerID: "solo"})
	units := testUnits(9)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	m, err := q.LoadManifest()
	if err != nil || !m.Complete {
		t.Fatalf("load: complete=%v err=%v", m.Complete, err)
	}

	var mu sync.Mutex
	runs := map[string]int{}
	st, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		mu.Lock()
		runs[u.ID()]++
		mu.Unlock()
		return nil
	}, WorkerOptions{})
	if err != nil {
		t.Fatalf("run worker: %v", err)
	}
	if st.Completed != uint64(len(units)) || st.DeadLettered != 0 {
		t.Errorf("stats = %+v, want %d completed", st, len(units))
	}
	for _, u := range units {
		if !q.Acked(u) {
			t.Errorf("unit %s not acked", u.ID())
		}
		if runs[u.ID()] != 1 {
			t.Errorf("unit %s executed %d times, want 1", u.ID(), runs[u.ID()])
		}
	}
	p := q.Census(units)
	if p.Acked != len(units) || p.Open != 0 || p.Retried != 0 {
		t.Errorf("census = %+v", p)
	}
}

func TestRunWorkerRetriesThenDeadLetters(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	q := openTestQueue(t, dir, QueueOptions{WorkerID: "w"})
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
		return nil
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
	if !q.Dead(units[1]) || q.Acked(units[1]) {
		t.Error("poison unit not dead-lettered")
	}
	if !q.Acked(units[0]) || !q.Acked(units[2]) {
		t.Error("healthy units not acked")
	}
}

func TestRunWorkerRefusesIncompleteManifest(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), QueueOptions{})
	m := &Manifest{Spec: testSpec(), Units: testUnits(2), Complete: false}
	_, err := RunWorker(context.Background(), q, m, func(ctx context.Context, u Unit) error {
		t.Error("executed a unit from an incomplete manifest")
		return nil
	}, WorkerOptions{})
	if err == nil {
		t.Fatal("worker accepted an incomplete manifest")
	}
}

// TestTwoWorkersSplitQueueWithoutDuplicates: two live workers draining the
// same queue execute every unit exactly once between them — live claims are
// never stolen, and every unit ends acked.
func TestTwoWorkersSplitQueueWithoutDuplicates(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	coord := openTestQueue(t, dir, QueueOptions{WorkerID: "coord"})
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
		return nil
	}
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := openTestQueue(t, dir, QueueOptions{WorkerID: fmt.Sprintf("w%d", i)})
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
		if !coord.Acked(u) {
			t.Errorf("unit %s not acked", u.ID())
		}
	}
}

func TestWaitManifest(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	q := openTestQueue(t, dir, QueueOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := WaitManifest(ctx, q, time.Millisecond); err == nil {
		t.Fatal("WaitManifest returned without a manifest")
	}

	// A complete manifest appearing mid-wait is picked up.
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
	if !m.Complete || len(m.Units) != 2 {
		t.Errorf("manifest: complete=%v units=%d", m.Complete, len(m.Units))
	}
}

func TestQueueResetClearsState(t *testing.T) {
	t.Parallel()

	q := openTestQueue(t, t.TempDir(), QueueOptions{})
	units := testUnits(2)
	if err := q.WriteManifest(testSpec(), units); err != nil {
		t.Fatal(err)
	}
	if ok, _ := q.TryClaim(units[0]); !ok {
		t.Fatal("claim")
	}
	if err := q.Ack(context.Background(), units[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := q.RecordFailure(units[1], errors.New("x")); err != nil {
		t.Fatal(err)
	}
	if err := q.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if _, err := q.LoadManifest(); !errors.Is(err, os.ErrNotExist) {
		t.Error("manifest survived reset")
	}
	if q.Acked(units[0]) || q.Attempts(units[1]) != 0 {
		t.Error("queue state survived reset")
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
