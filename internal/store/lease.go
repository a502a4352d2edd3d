package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
)

// Leases is the cross-process lease protocol shared by the store's
// per-key compute leases (leases/<key>.lease) and the work queue's unit
// claims (claims/<unit>.claim). A lease is a file created with
// O_CREATE|O_EXCL: exactly one process wins the create, and holds the
// lease until it removes the file or the file goes stale.
//
// The file body is advisory — "pid host[ owner]\n", for the liveness
// probe and for humans reading a crashed sweep's directory; correctness
// rests on the exclusive create alone. A lease is stale, and any process
// may break it, when:
//
//   - its mtime is older than the TTL (authoritative on its own; Renew
//     pushes the mtime forward),
//   - it was written on this host and its pid fails a signal-0 probe —
//     the fast path that reclaims a SIGKILLed owner's work immediately, or
//   - it is empty and its mtime is older than emptyLeaseGrace: its owner
//     died between the exclusive create and the body write, which a live
//     owner finishes at once.
//
// A lease written on another host names a pid that means nothing here:
// probing it would either find an unrelated local process (the lease
// never breaks) or nothing (a live lease broken at once, duplicating work
// and racing the owner's publish). Foreign-host, torn and unparseable
// bodies — and every body when this host's name is unknown — therefore
// fall back to the TTL alone, unless they are empty.
type Leases struct {
	fsys      FS
	now       clock.Clock
	ttl       time.Duration
	alive     func(pid int) bool
	host      string
	body      []byte
	takeovers atomic.Uint64
}

// emptyLeaseGrace is how long an empty lease may stand before it counts
// as stale. A live owner writes the body right after the exclusive
// create, so an older empty lease was left by a process killed between
// the two; without this bound only the TTL would break it.
const emptyLeaseGrace = 5 * time.Second

// selfPid is read once: getpid is a system call, and a sweep opens its
// store once per setup.
var selfPid = os.Getpid()

// LeaseOptions configures NewLeases; zero values take the defaults noted.
type LeaseOptions struct {
	// Clock reads wall time for staleness; nil means the system clock.
	Clock clock.Clock
	// TTL is how old a lease's mtime may grow before any process may
	// break it; <= 0 means NewLeases' defaultTTL.
	TTL time.Duration
	// Alive probes whether a same-host pid still runs; nil means a
	// signal-0 probe. Tests inject a stub.
	Alive func(pid int) bool
	// Hostname names this host in lease bodies; pid probes are only
	// trusted against leases from the same hostname. Empty means
	// os.Hostname, and a failed lookup leaves every lease to the TTL.
	Hostname string
	// Owner, when non-empty, is appended to the body as a third field.
	Owner string
}

// NewLeases returns this process's handle on the lease protocol over
// fsys, with defaultTTL standing in for a zero o.TTL.
func NewLeases(fsys FS, defaultTTL time.Duration, o LeaseOptions) *Leases {
	l := &Leases{fsys: fsys, now: o.Clock, ttl: o.TTL, alive: o.Alive, host: o.Hostname}
	if l.now == nil {
		l.now = clock.System
	}
	if l.ttl <= 0 {
		l.ttl = defaultTTL
	}
	if l.alive == nil {
		l.alive = processAlive
	}
	if l.host == "" {
		// A failed lookup leaves the hostname unknown; stale leases are
		// then broken by TTL alone, which stays correct, just slower.
		l.host, _ = os.Hostname()
	}
	// Rendered once: a lease taken per work unit then writes it without
	// formatting or allocating.
	l.body = strconv.AppendInt(make([]byte, 0, 24+len(l.host)+len(o.Owner)), int64(selfPid), 10)
	l.body = append(append(l.body, ' '), l.host...)
	if o.Owner != "" {
		l.body = append(append(l.body, ' '), o.Owner...)
	}
	l.body = append(l.body, '\n')
	return l
}

// TryAcquire attempts to take the lease at path. An existing lease that
// is Stale is broken (counted in Takeovers) and the exclusive create
// retried once; concurrent breakers may both remove it, and exactly one
// retry then wins. ok=false without error means a live owner holds it.
func (l *Leases) TryAcquire(path string) (bool, error) {
	for attempt := 0; attempt < 2; attempt++ {
		f, err := l.fsys.OpenExcl(path)
		if err == nil {
			_, werr := f.Write(l.body)
			_ = f.Sync()
			if err := errors.Join(werr, f.Close()); err != nil {
				_ = l.fsys.Remove(path)
				return false, fmt.Errorf("store: write lease %s: %w", path, err)
			}
			return true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return false, fmt.Errorf("store: acquire lease %s: %w", path, err)
		}
		if !l.Stale(path) {
			return false, nil
		}
		l.takeovers.Add(1)
		if err := l.fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("store: break stale lease %s: %w", path, err)
		}
	}
	return false, nil
}

// Stale reports whether the lease at path may be broken (see Leases). A
// vanished or unreadable file counts as stale: its owner released it.
func (l *Leases) Stale(path string) bool {
	info, err := l.fsys.Stat(path)
	if err != nil {
		return true
	}
	age := l.now().Sub(info.ModTime())
	if age > l.ttl || (info.Size() == 0 && age > emptyLeaseGrace) {
		return true
	}
	data, err := l.fsys.ReadFile(path)
	if err != nil {
		return true
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 || l.host == "" || fields[1] != l.host {
		// Torn, hostless or foreign: the pid is not ours to probe.
		return false
	}
	pid, err := strconv.Atoi(fields[0])
	if err != nil || pid <= 0 {
		return false
	}
	return !l.alive(pid)
}

// Renew refreshes the mtime of a lease this process holds by appending
// to it, so the TTL counts from now. The appended bytes are inert.
func (l *Leases) Renew(path string) error {
	f, err := l.fsys.OpenAppend(path)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("hb\n")); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Release removes the lease at path, best effort: an unremovable lease is
// eventually broken by pid probe or TTL.
func (l *Leases) Release(path string) {
	_ = l.fsys.Remove(path)
}

// TTL returns the staleness bound in force.
func (l *Leases) TTL() time.Duration { return l.ttl }

// Takeovers counts stale leases broken by this handle.
func (l *Leases) Takeovers() uint64 { return l.takeovers.Load() }

// processAlive probes pid with signal 0, the conventional same-host
// liveness check. FindProcess never fails on unix; the signal does.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return p.Signal(syscall.Signal(0)) == nil
}
