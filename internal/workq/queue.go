package workq

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/store"
)

// Queue is one worker's (or the coordinator's) handle on the work queue
// that lives inside a result store. The on-disk protocol under
// <storedir>/workq:
//
//	manifest.json         write-once sweep manifest (workq.go)
//	claims/<unit>.claim   O_CREATE|O_EXCL lease; mtime renewed by heartbeat
//	failed/<unit>         append-only attempt log, one line per failure
//	dead/<unit>           dead-letter: the failure log, renamed after the
//	                      attempt budget is exhausted
//
// A unit is complete when the store holds its entry (Complete); the queue
// keeps no record of its own. Each transition commits with exactly one
// atomic filesystem operation: claim by exclusive create, completion by
// the store's rename of the entry, dead-letter by rename. A SIGKILL at
// any instant therefore leaves every unit open, claimed (stale-able),
// complete, or dead, never in a torn intermediate.
type Queue struct {
	dir    string
	st     *store.DiskStore
	fsys   store.FS
	leases *store.Leases
	worker string
}

// QueueOptions configures OpenQueue.
type QueueOptions struct {
	// Clock, Alive and Hostname configure the claim leases as in
	// store.LeaseOptions.
	Clock    clock.Clock
	Alive    func(pid int) bool
	Hostname string
	// TTL is how old a claim's mtime may grow before any worker may break
	// it regardless of owner (default 30s). Heartbeats renew the mtime, so
	// the TTL only fires for workers that stopped heartbeating.
	TTL time.Duration
	// WorkerID names this worker in claims and failure logs, for humans
	// reading a crashed sweep's directory. Empty means "pid-<pid>".
	WorkerID string
}

// OpenQueue prepares the handle on st's work queue, rooted at
// <st.Dir()>/workq and doing its I/O through st's filesystem, creating the
// directory tree as needed.
func OpenQueue(st *store.DiskStore, o QueueOptions) (*Queue, error) {
	q := &Queue{dir: filepath.Join(st.Dir(), "workq"), st: st, fsys: st.FS(), worker: o.WorkerID}
	if q.worker == "" {
		q.worker = "pid-" + strconv.Itoa(os.Getpid())
	}
	q.leases = store.NewLeases(q.fsys, 30*time.Second, store.LeaseOptions{
		Clock: o.Clock, TTL: o.TTL, Alive: o.Alive, Hostname: o.Hostname, Owner: q.worker,
	})
	for _, sub := range []string{"claims", "failed", "dead"} {
		if err := q.fsys.MkdirAll(filepath.Join(q.dir, sub)); err != nil {
			return nil, fmt.Errorf("workq: init %s: %w", q.dir, err)
		}
	}
	return q, nil
}

// Dir returns the queue's root directory.
func (q *Queue) Dir() string { return q.dir }

// WorkerID returns the identity this handle writes into claims and
// failure logs.
func (q *Queue) WorkerID() string { return q.worker }

// ManifestPath returns the manifest's conventional location.
func (q *Queue) ManifestPath() string { return filepath.Join(q.dir, "manifest.json") }

func (q *Queue) claimPath(u Unit) string {
	return filepath.Join(q.dir, "claims", u.ID()+".claim")
}

func (q *Queue) failedPath(u Unit) string {
	return filepath.Join(q.dir, "failed", u.ID())
}

func (q *Queue) deadPath(u Unit) string {
	return filepath.Join(q.dir, "dead", u.ID())
}

// TryClaim attempts to claim u exclusively under the store's lease
// protocol: a claim whose owner is provably dead (same-host pid probe) or
// whose mtime has outlived the TTL — a worker that stopped heartbeating —
// is broken and the exclusive create retried once. ok=false without error
// means another live worker holds the unit.
func (q *Queue) TryClaim(u Unit) (bool, error) {
	return q.leases.TryAcquire(q.claimPath(u))
}

// Heartbeat renews this worker's claim on u, refreshing its mtime so the
// TTL keeps counting from now.
func (q *Queue) Heartbeat(u Unit) error {
	return q.leases.Renew(q.claimPath(u))
}

// Release removes u's claim, best effort: an unremovable claim is
// eventually broken by pid probe or TTL.
func (q *Queue) Release(u Unit) {
	q.leases.Release(q.claimPath(u))
}

// Complete reports whether the store holds u's result in this codec
// version: the one record that a unit is done. An entry of another codec
// version leaves the unit open, so it is recomputed and overwritten.
func (q *Queue) Complete(u Unit) bool {
	k, err := u.Key()
	return err == nil && q.st.Has(k)
}

// Dead reports whether u has been dead-lettered.
func (q *Queue) Dead(u Unit) bool {
	_, err := q.fsys.Stat(q.deadPath(u))
	return err == nil
}

// RecordFailure appends one attempt line to u's failure log. The log's
// line count is the unit's global attempt tally, shared by every worker,
// so the dead-letter budget holds across worker crashes and restarts.
func (q *Queue) RecordFailure(u Unit, cause error) error {
	f, err := q.fsys.OpenAppend(q.failedPath(u))
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%s %s: %s\n", q.worker, u.ID(), oneLine(cause))
	if _, err := f.Write([]byte(line)); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Attempts returns u's recorded failure count.
func (q *Queue) Attempts(u Unit) int {
	data, err := q.fsys.ReadFile(q.failedPath(u))
	if err != nil {
		return 0
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}

// DeadLetter retires u after its attempt budget is spent: the failure log
// renames atomically into dead/, which both marks the unit terminal and
// preserves every attempt's error for inspection. The coordinator
// recomputes dead units locally at assembly, so a dead letter degrades
// the sweep's parallelism, never its output.
func (q *Queue) DeadLetter(u Unit, cause error) error {
	src := q.failedPath(u)
	if _, err := q.fsys.Stat(src); err != nil {
		// No failure log (e.g. its writes failed too): synthesize the
		// terminal record directly, still atomically.
		line := fmt.Sprintf("%s %s: %s\n", q.worker, u.ID(), oneLine(cause))
		return store.WriteFileAtomic(q.fsys, q.deadPath(u), []byte(line))
	}
	if err := q.fsys.Rename(src, q.deadPath(u)); err != nil {
		return fmt.Errorf("workq: dead-letter %s: %w", u.ID(), err)
	}
	// The rename marks the unit terminal; without a directory sync a
	// crash can roll it back and resurrect the unit on every worker.
	if err := q.fsys.SyncDir(filepath.Dir(q.deadPath(u))); err != nil {
		return fmt.Errorf("workq: sync dead dir for %s: %w", u.ID(), err)
	}
	return nil
}

// Progress is a point-in-time census of a unit list.
type Progress struct {
	// Done and Dead count terminal units; Open is the remainder.
	Done, Dead, Open int
	// Retried counts complete units that still have a failure log: they
	// failed at least once before a later execution stored them.
	Retried int
}

// Census scans the queue state of every unit. Complete wins over Dead
// when both hold (a unit that dead-lettered on one worker and later
// succeeded on another is done, and its result is in the store).
func (q *Queue) Census(units []Unit) Progress {
	var p Progress
	for _, u := range units {
		switch {
		case q.Complete(u):
			p.Done++
			if _, err := q.fsys.Stat(q.failedPath(u)); err == nil {
				p.Retried++
			}
		case q.Dead(u):
			p.Dead++
		default:
			p.Open++
		}
	}
	return p
}

// Reset discards all queue state — manifest, claims, failure logs, dead
// letters — for a fresh (non-resumed) sweep. Completion is not queue
// state: a unit whose entry the store already holds stays Complete,
// because content-addressed results are sound regardless of which sweep
// produced them.
func (q *Queue) Reset() error {
	if err := q.fsys.Remove(q.ManifestPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("workq: reset manifest: %w", err)
	}
	for _, sub := range []string{"claims", "failed", "dead"} {
		dir := filepath.Join(q.dir, sub)
		if err := os.RemoveAll(dir); err != nil {
			return fmt.Errorf("workq: reset %s: %w", dir, err)
		}
		if err := q.fsys.MkdirAll(dir); err != nil {
			return fmt.Errorf("workq: reset %s: %w", dir, err)
		}
	}
	return nil
}

func oneLine(err error) string {
	if err == nil {
		return "unknown failure"
	}
	return strings.ReplaceAll(err.Error(), "\n", " ")
}
