package store

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
)

// reapedPid returns the pid of a child process that has been killed and
// reaped. A zombie still answers signal 0, so the Wait is what makes the
// default probe see the owner as dead.
func reapedPid(t *testing.T) int {
	t.Helper()
	cmd := exec.Command("sleep", "60")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start subprocess: %v", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	return cmd.Process.Pid
}

// TestLeaseStaleness drives every staleness rule of the lease protocol
// through one handle on host "hostA" with a 5-minute TTL, against
// hand-written lease bodies in the formats the store and the work queue
// write: a lease that holds blocks TryAcquire, a stale one is broken
// (counted as a takeover) and re-taken with this handle's body, which
// names its Owner as a third field when it has one.
func TestLeaseStaleness(t *testing.T) {
	t.Parallel()

	const ttl = 5 * time.Minute
	dead := func(int) bool { return false }
	self := os.Getpid()
	cases := []struct {
		name   string
		body   string
		age    time.Duration      // how far in the past the mtime lies
		alive  func(pid int) bool // nil: the default signal-0 probe
		renew  bool               // Renew the lease before judging it
		absent bool               // no lease file at all
		owner  string             // the handle's Owner, written on acquire
		stale  bool
	}{
		{name: "live same-host owner holds", body: fmt.Sprintf("%d hostA\n", self)},
		{name: "live same-host claim owner holds", body: fmt.Sprintf("%d hostA worker-1\n", self)},
		{name: "dead same-host pid injected", body: "999999 hostA\n", alive: dead, owner: "w1", stale: true},
		{name: "dead same-host pid reaped child", body: fmt.Sprintf("%d hostA w\n", reapedPid(t)), stale: true},
		{name: "foreign host fresh holds", body: "999999 hostB\n", alive: dead},
		{name: "foreign host past TTL", body: "999999 hostB\n", age: time.Hour, stale: true},
		{name: "empty body holds", body: "", alive: dead},
		{name: "hostless pid holds", body: "424242\n", alive: dead},
		{name: "unparseable pid holds", body: "not-a-pid hostA\n", alive: dead},
		{name: "unparseable pid past TTL", body: "garbage\n", age: time.Hour, stale: true},
		{name: "vanished file", absent: true, stale: true},
		{name: "renewed lease holds", body: "999999 hostB\n", age: time.Hour, renew: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "unit.lease")
			l := NewLeases(OS, ttl, LeaseOptions{Alive: tc.alive, Hostname: "hostA", Owner: tc.owner})
			if !tc.absent {
				if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
					t.Fatal(err)
				}
				mtime := time.Now().Add(-tc.age)
				if err := os.Chtimes(path, mtime, mtime); err != nil {
					t.Fatal(err)
				}
			}
			if tc.renew {
				if err := l.Renew(path); err != nil {
					t.Fatalf("renew: %v", err)
				}
			}
			if got := l.Stale(path); got != tc.stale {
				t.Fatalf("Stale = %v, want %v", got, tc.stale)
			}
			ok, err := l.TryAcquire(path)
			if err != nil || ok != tc.stale {
				t.Fatalf("TryAcquire: ok=%v err=%v, want ok=%v", ok, err, tc.stale)
			}
			wantTakeovers := uint64(0)
			if tc.stale && !tc.absent {
				wantTakeovers = 1
			}
			if got := l.Takeovers(); got != wantTakeovers {
				t.Errorf("takeovers = %d, want %d", got, wantTakeovers)
			}
			if ok {
				want := fmt.Sprintf("%d hostA\n", self)
				if tc.owner != "" {
					want = fmt.Sprintf("%d hostA %s\n", self, tc.owner)
				}
				if data, err := os.ReadFile(path); err != nil || string(data) != want {
					t.Errorf("acquired body = %q (err %v), want %q", data, err, want)
				}
				l.Release(path)
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("lease survived Release: %v", err)
				}
			}
		})
	}
}

// TestEmptyLeaseBrokenAfterGrace covers the two ways a lease ends up
// empty. A failed body write must fail the acquire and leave no lease
// behind; a lease left empty by an owner killed between the exclusive
// create and the write holds for emptyLeaseGrace and is then broken, far
// sooner than the TTL.
func TestEmptyLeaseBrokenAfterGrace(t *testing.T) {
	t.Parallel()

	const ttl = 5 * time.Minute
	path := filepath.Join(t.TempDir(), "unit.lease")
	ffs := NewFaultFS(OS)
	ffs.FailWriteIn(1)
	failed := NewLeases(ffs, ttl, LeaseOptions{Hostname: "hostA"})
	if ok, err := failed.TryAcquire(path); ok || err == nil {
		t.Errorf("acquire with a failed body write: ok=%v err=%v, want an error", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed acquire left a lease behind (stat err %v)", err)
	}

	// An empty lease, as an owner killed between OpenExcl and Write
	// leaves one.
	f, err := OS.OpenExcl(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The clock reads 1s after the create, then steps past the grace.
	l := NewLeases(OS, ttl, LeaseOptions{
		Hostname: "hostA",
		Clock:    clock.Stepped(info.ModTime().Add(time.Second), emptyLeaseGrace),
	})
	if ok, err := l.TryAcquire(path); ok || err != nil {
		t.Fatalf("empty lease inside the grace: ok=%v err=%v, want held", ok, err)
	}
	if ok, err := l.TryAcquire(path); !ok || err != nil {
		t.Fatalf("empty lease past the grace: ok=%v err=%v, want acquired", ok, err)
	}
	if got := l.Takeovers(); got != 1 {
		t.Errorf("takeovers = %d, want 1", got)
	}
}
