package store

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

func testKey(s string, seed uint64) Key {
	return Key{Sum: sha256.Sum256([]byte(s)), Seed: seed}
}

func openTestStore(t *testing.T, opts DiskOptions) *DiskStore {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return s
}

func TestDiskStorePutGetRoundTrip(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 7)
	want := testResult(t)
	if err := s.Put(ctx, k, want); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok, err := s.Get(ctx, k)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stored result differs from original")
	}
	st := s.Stats()
	if st.Puts != 1 || st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 put, 1 disk hit", st)
	}
}

func TestDiskStoreGetMiss(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	_, ok, err := s.Get(context.Background(), testKey("absent", 1))
	if err != nil || ok {
		t.Fatalf("get of absent key: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// TestDiskStoreCorruptionDegradesToRecomputation is the acceptance
// criterion for read faults: a bit-flipped entry is quarantined and
// reported as a miss — never served — and the key is immediately
// rewritable.
func TestDiskStoreCorruptionDegradesToRecomputation(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		arm  func(*FaultFS)
	}{
		{"bit flip", func(f *FaultFS) { f.CorruptReadIn(1) }},
		{"torn entry", func(f *FaultFS) { f.TruncateReadIn(1) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ffs := NewFaultFS(OS)
			s := openTestStore(t, DiskOptions{FS: ffs})
			ctx := context.Background()
			k := testKey("cfg", 3)
			want := testResult(t)
			if err := s.Put(ctx, k, want); err != nil {
				t.Fatal(err)
			}

			tc.arm(ffs)
			res, ok, err := s.Get(ctx, k)
			if err != nil {
				t.Fatalf("corrupt read surfaced an error instead of a miss: %v", err)
			}
			if ok || res != nil {
				t.Fatal("corrupt entry was served")
			}
			st := s.Stats()
			if st.Quarantined != 1 {
				t.Errorf("quarantined = %d, want 1", st.Quarantined)
			}

			// The damaged file moved aside for inspection; the object slot
			// is free again and a fresh Put restores service.
			corrupt, err := filepath.Glob(filepath.Join(s.Dir(), "corrupt", "*"))
			if err != nil || len(corrupt) != 1 {
				t.Errorf("corrupt/ holds %d files (%v), want 1", len(corrupt), err)
			}
			if _, ok, _ := s.Get(ctx, k); ok {
				t.Error("key still readable after quarantine")
			}
			if err := s.Put(ctx, k, want); err != nil {
				t.Fatalf("re-put after quarantine: %v", err)
			}
			got, ok, err := s.Get(ctx, k)
			if err != nil || !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("recomputed entry not served after quarantine")
			}
		})
	}
}

// TestQuarantineSyncsCorruptDir pins the durability fix the atomicproto
// lint rule surfaced: after a successful quarantine rename the corrupt/
// directory is synced, so the moved-aside evidence survives a crash.
func TestQuarantineSyncsCorruptDir(t *testing.T) {
	t.Parallel()

	ffs := NewFaultFS(OS)
	s := openTestStore(t, DiskOptions{FS: ffs})
	ctx := context.Background()
	k := testKey("cfg", 3)
	if err := s.Put(ctx, k, testResult(t)); err != nil {
		t.Fatal(err)
	}

	ffs.CorruptReadIn(1)
	before := ffs.SyncDirs
	if _, ok, err := s.Get(ctx, k); err != nil || ok {
		t.Fatalf("corrupt read: ok=%v err=%v, want plain miss", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	if ffs.SyncDirs <= before {
		t.Fatalf("quarantine moved the entry without syncing corrupt/ (SyncDirs %d -> %d)", before, ffs.SyncDirs)
	}
}

// TestDiskStoreVersionMismatchIsPlainMiss: an entry from another codec
// revision is healthy data, not corruption — it stays on disk (no
// quarantine) and is simply recomputed and overwritten.
func TestDiskStoreVersionMismatchIsPlainMiss(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 9)
	if err := s.Put(ctx, k, testResult(t)); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = codecVersion + 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ok, err := s.Get(ctx, k)
	if err != nil || ok {
		t.Fatalf("future-version entry: ok=%v err=%v, want plain miss", ok, err)
	}
	st := s.Stats()
	if st.Quarantined != 0 {
		t.Errorf("version mismatch quarantined %d entries", st.Quarantined)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("future-version entry removed from disk: %v", err)
	}
}

// TestDiskStoreHasReadsOnlyTheHeader: Has is true exactly for an entry of
// this codec version. It judges the frame header alone, so a payload
// bit-flip still reads as present, and it moves no counter and
// quarantines nothing; the Get that later reads the entry catches it.
func TestDiskStoreHasReadsOnlyTheHeader(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 5)
	if s.Has(k) {
		t.Fatal("Has true for an absent key")
	}
	if err := s.Put(ctx, k, testResult(t)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k) {
		t.Fatal("Has false after Put")
	}
	path := s.objectPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if !s.Has(k) {
		t.Error("Has false for a payload bit-flip: it should read only the header")
	}
	data[4] = codecVersion + 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Has(k) {
		t.Error("Has true for an entry of another codec version")
	}
	if err := os.WriteFile(path, data[:headerSize-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if s.Has(k) {
		t.Error("Has true for an entry shorter than its header")
	}
	if st := s.Stats(); st != (Stats{Puts: 1}) {
		t.Errorf("stats after Has calls = %+v, want only the one put", st)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("Has moved the entry: %v", err)
	}
}

// TestDiskStorePutFaultsLeaveNoPartialEntry drives each write-path fault
// through Put: the put fails, the key reads as a miss (never a torn
// frame), and WriteErrors counts it.
func TestDiskStorePutFaultsLeaveNoPartialEntry(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name string
		arm  func(*FaultFS)
	}{
		{"write error", func(f *FaultFS) { f.FailWriteIn(1) }},
		{"short write", func(f *FaultFS) { f.ShortWriteIn(1) }},
		{"rename error", func(f *FaultFS) { f.FailRenameIn(1) }},
		{"fsync error", func(f *FaultFS) { f.FailSyncIn(1) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ffs := NewFaultFS(OS)
			s := openTestStore(t, DiskOptions{FS: ffs})
			ctx := context.Background()
			k := testKey("cfg", 5)

			tc.arm(ffs)
			if err := s.Put(ctx, k, testResult(t)); err == nil {
				t.Fatal("put under fault succeeded")
			}
			if st := s.Stats(); st.WriteErrors != 1 {
				t.Errorf("write errors = %d, want 1", st.WriteErrors)
			}
			if _, ok, err := s.Get(ctx, k); ok || err != nil {
				t.Errorf("after failed put: ok=%v err=%v, want clean miss", ok, err)
			}
			noTempFiles(t, s.Dir())

			// Recomputation path: the next put must succeed.
			if err := s.Put(ctx, k, testResult(t)); err != nil {
				t.Errorf("put after spent fault: %v", err)
			}
		})
	}
}

func TestDiskStoreGetCancelled(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Get(ctx, testKey("cfg", 1)); !errors.Is(err, context.Canceled) {
		t.Errorf("get with cancelled ctx: %v", err)
	}
	if err := s.Put(ctx, testKey("cfg", 1), testResult(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("put with cancelled ctx: %v", err)
	}
}

func TestGetOrComputeComputesOnceThenHitsDisk(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 11)
	want := testResult(t)
	computes := 0
	compute := func() (*core.Result, error) {
		computes++
		return want, nil
	}

	res, origin, err := s.GetOrCompute(ctx, k, compute)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginComputed || computes != 1 {
		t.Errorf("first call: origin=%v computes=%d, want computed once", origin, computes)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("computed result altered")
	}

	res, origin, err = s.GetOrCompute(ctx, k, compute)
	if err != nil {
		t.Fatal(err)
	}
	if origin != OriginDisk || computes != 1 {
		t.Errorf("second call: origin=%v computes=%d, want disk hit, no recompute", origin, computes)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("disk result differs from computed one")
	}

	// The lease is released: nothing under leases/.
	leases, _ := filepath.Glob(filepath.Join(s.Dir(), "leases", "*"))
	if len(leases) != 0 {
		t.Errorf("%d lease files left behind", len(leases))
	}
}

func TestGetOrComputeComputeErrorReleasesLease(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 13)
	boom := errors.New("replication failed")
	if _, _, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("compute error not propagated: %v", err)
	}
	// Failure released the lease, so a retry computes immediately.
	res, origin, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return testResult(t), nil
	})
	if err != nil || origin != OriginComputed || res == nil {
		t.Errorf("retry after failed compute: origin=%v err=%v", origin, err)
	}
}

// TestGetOrComputeStaleLeaseTakeover: a lease whose owner is dead (pid
// probe fails) is broken immediately, without waiting out the TTL. The
// probe only applies to leases recorded on this host, so the lease names
// the store's own hostname.
func TestGetOrComputeStaleLeaseTakeover(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{
		Hostname: "testhost",
		Alive:    func(pid int) bool { return false },
	})
	ctx := context.Background()
	k := testKey("cfg", 17)
	if err := os.WriteFile(s.leasePath(k), []byte("999999 testhost\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, origin, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return testResult(t), nil
	})
	if err != nil || res == nil || origin != OriginComputed {
		t.Fatalf("takeover compute: origin=%v err=%v", origin, err)
	}
	if st := s.Stats(); st.LeaseTakeovers != 1 {
		t.Errorf("takeovers = %d, want 1", st.LeaseTakeovers)
	}
}

// TestLeaseForeignHostOnlyTTL: a lease recorded on another host names a pid
// that is meaningless here, so even a "dead" probe result must not break it
// before the TTL — and TTL expiry must, probe notwithstanding.
func TestLeaseForeignHostOnlyTTL(t *testing.T) {
	t.Parallel()

	fresh := openTestStore(t, DiskOptions{
		Hostname: "hostB",
		Alive:    func(pid int) bool { return false },
	})
	k := testKey("cfg", 37)
	if err := os.WriteFile(fresh.leasePath(k), []byte("999999 hostA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh.leases.Stale(fresh.leasePath(k)) {
		t.Error("fresh foreign-host lease declared dead by a local pid probe")
	}

	aged := openTestStore(t, DiskOptions{
		Hostname: "hostB",
		Alive:    func(pid int) bool { return true },
		Clock:    func() time.Time { return time.Now().Add(time.Hour) },
		LeaseTTL: 5 * time.Minute,
	})
	if err := os.WriteFile(aged.leasePath(k), []byte("999999 hostA\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !aged.leases.Stale(aged.leasePath(k)) {
		t.Error("foreign-host lease past the TTL not declared dead")
	}
}

// TestLeaseTakeoverOfSIGKilledOwner is the satellite regression test for
// the crash the lease protocol exists to survive: a real subprocess writes
// its pid into a lease and is SIGKILLed, and the default signal-0 probe —
// no injected Alive — detects the death and lets the takeover proceed.
func TestLeaseTakeoverOfSIGKilledOwner(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{})
	ctx := context.Background()
	k := testKey("cfg", 41)

	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start subprocess: %v", err)
	}
	pid := cmd.Process.Pid
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	// Reap the child: a zombie still answers signal 0, so without the Wait
	// the probe would see the owner as alive.
	_ = cmd.Wait()

	lease := fmt.Sprintf("%d %s\n", pid, s.leases.host)
	if err := os.WriteFile(s.leasePath(k), []byte(lease), 0o644); err != nil {
		t.Fatal(err)
	}
	res, origin, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return testResult(t), nil
	})
	if err != nil || res == nil || origin != OriginComputed {
		t.Fatalf("takeover of SIGKILLed owner's lease: origin=%v err=%v", origin, err)
	}
	if st := s.Stats(); st.LeaseTakeovers != 1 {
		t.Errorf("takeovers = %d, want 1", st.LeaseTakeovers)
	}
}

// TestGetOrComputeTTLTakeover: a lease with an unparseable owner pid can
// only be broken by age; with the clock advanced past the TTL it is.
func TestGetOrComputeTTLTakeover(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{
		Clock:    func() time.Time { return time.Now().Add(time.Hour) },
		LeaseTTL: 5 * time.Minute,
		Alive:    func(pid int) bool { return true },
	})
	ctx := context.Background()
	k := testKey("cfg", 19)
	if err := os.WriteFile(s.leasePath(k), []byte("not-a-pid\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, origin, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return testResult(t), nil
	})
	if err != nil || origin != OriginComputed {
		t.Fatalf("TTL takeover: origin=%v err=%v", origin, err)
	}
	if st := s.Stats(); st.LeaseTakeovers != 1 {
		t.Errorf("takeovers = %d, want 1", st.LeaseTakeovers)
	}
}

func TestLeaseDeadUnparseableFreshLeaseHolds(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{Alive: func(pid int) bool { return false }})
	k := testKey("cfg", 23)
	if err := os.WriteFile(s.leasePath(k), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.leases.Stale(s.leasePath(k)) {
		t.Error("fresh lease with unparseable pid was declared dead; only the TTL may break it")
	}
}

// TestGetOrComputeWaitsForPeer: with a live lease held by "another
// process", the caller waits and picks up the entry that peer publishes.
func TestGetOrComputeWaitsForPeer(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{
		Alive:     func(pid int) bool { return true },
		LeasePoll: 2 * time.Millisecond,
	})
	ctx := context.Background()
	k := testKey("cfg", 29)
	want := testResult(t)
	if err := os.WriteFile(s.leasePath(k), []byte("424242\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		res    *core.Result
		origin Origin
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		res, origin, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
			return nil, errors.New("the waiter must not compute")
		})
		done <- outcome{res, origin, err}
	}()

	// The "peer" publishes its result after the waiter has started
	// polling. Put does not need the lease.
	time.Sleep(10 * time.Millisecond)
	if err := s.Put(ctx, k, want); err != nil {
		t.Fatal(err)
	}

	got := <-done
	if got.err != nil {
		t.Fatalf("waiter failed: %v", got.err)
	}
	if got.origin != OriginPeer {
		t.Errorf("origin = %v, want OriginPeer", got.origin)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Error("waiter saw a different result than the peer published")
	}
	st := s.Stats()
	if st.PeerHits != 1 || st.LeaseWaits != 1 {
		t.Errorf("peer hits = %d, lease waits = %d, want 1 and 1", st.PeerHits, st.LeaseWaits)
	}
}

func TestGetOrComputeCancelledWhileWaiting(t *testing.T) {
	t.Parallel()

	s := openTestStore(t, DiskOptions{
		Alive:     func(pid int) bool { return true },
		LeasePoll: 2 * time.Millisecond,
	})
	k := testKey("cfg", 31)
	if err := os.WriteFile(s.leasePath(k), []byte("424242\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := s.GetOrCompute(ctx, k, func() (*core.Result, error) {
		return nil, errors.New("must not compute while the lease is held")
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled wait returned %v", err)
	}
}
