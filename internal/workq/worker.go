package workq

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// RunFunc executes one unit: compute the replication and publish its
// result durably (store put + journal append). It must be idempotent —
// two workers racing on a takeover may both run the same unit — which
// holds by construction here because results are pure functions of
// (fingerprint, seed) and publication is an atomic rename of identical
// bytes. A nil return means the result is durable in the store, which is
// what makes the unit complete.
type RunFunc func(ctx context.Context, u Unit) error

// WorkerOptions tunes the pull-execute-publish loop.
type WorkerOptions struct {
	// Poll is the rescan delay when every open unit is claimed by other
	// workers (default 200ms).
	Poll time.Duration
	// Heartbeat is the claim-renewal interval while a unit runs (default
	// a third of the queue's claim TTL).
	Heartbeat time.Duration
	// MaxAttempts is the global per-unit attempt budget before
	// dead-lettering, shared across workers via the failure log
	// (default 3).
	MaxAttempts int
	// Backoff is the first retry delay; it doubles per attempt up to
	// BackoffMax (defaults 250ms and 5s).
	Backoff, BackoffMax time.Duration
	// Drain, when non-nil and closed, asks the worker to finish its
	// current unit and return instead of claiming another — the graceful
	// SIGTERM path.
	Drain <-chan struct{}
}

func (o WorkerOptions) withDefaults(ttl time.Duration) WorkerOptions {
	if o.Poll <= 0 {
		o.Poll = 200 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = ttl / 3
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	return o
}

// WorkerStats counts one worker's contribution to a sweep.
type WorkerStats struct {
	// Completed counts units this worker executed and found stored.
	Completed uint64
	// Retried counts failed executions that were retried (here or,
	// via the failure log, by a later claimer).
	Retried uint64
	// DeadLettered counts units this worker retired after the attempt
	// budget.
	DeadLettered uint64
	// ClaimConflicts counts claims lost to other live workers.
	ClaimConflicts uint64
	// QueueErrors counts queue I/O failures that were skipped past (the
	// unit stays open for a later pass or another worker).
	QueueErrors uint64
}

// WaitManifest polls until the queue's manifest exists and parses, or ctx
// expires. A missing, unreadable or corrupt manifest all mean "keep
// waiting": the coordinator is about to (re)publish it.
func WaitManifest(ctx context.Context, q *Queue, poll time.Duration) (*Manifest, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		m, err := q.LoadManifest()
		if err == nil {
			return m, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("workq: no manifest at %s (%v): %w", q.ManifestPath(), err, ctx.Err())
		case <-time.After(poll):
		}
	}
}

// RunWorker drains the manifest: repeatedly scan for open units, claim one,
// execute it with bounded retries and exponential backoff, and publish. It
// returns when every unit is terminal (complete or dead), when
// ctx is cancelled, or — after finishing the unit in hand — when Drain
// closes. A SIGKILL at any instant loses at most the in-flight unit, which
// the next claimer recomputes. Each pass scans the manifest from a unit
// picked by the worker's ID (see scanStart) and wraps around; a lost claim
// skips ahead (see conflictSkip).
//
// A unit seen complete or dead is marked and not checked again in later
// passes. Only a quarantined corrupt entry reopens a complete unit, so
// before returning the worker re-checks every unit it marked before its
// latest pass or execution, and resumes if any reopened.
func RunWorker(ctx context.Context, q *Queue, m *Manifest, run RunFunc, o WorkerOptions) (WorkerStats, error) {
	o = o.withDefaults(q.leases.TTL())
	var st WorkerStats
	start := scanStart(q.WorkerID(), len(m.Units))
	// seen[i] is the epoch in which unit i was last seen complete or dead;
	// 0 means it was open when last checked. The epoch advances at every
	// pass and every execution, the points where time passes and an entry
	// may be quarantined.
	seen := make([]int, len(m.Units))
	epoch := 0
	terminal := func(i int) bool {
		u := m.Units[i]
		seen[i] = 0
		if q.Complete(u) || q.Dead(u) {
			seen[i] = epoch
		}
		return seen[i] > 0
	}
	// finished reports whether every unit is complete or dead: all were
	// seen so, and those seen in an earlier epoch still are.
	finished := func() bool {
		for _, e := range seen {
			if e == 0 {
				return false
			}
		}
		done := true
		for i, e := range seen {
			if e < epoch && !terminal(i) {
				done = false
			}
		}
		return done
	}
	for {
		epoch++
		skip, progress := 0, false
		for k := range m.Units {
			i := (start + k) % len(m.Units)
			u := m.Units[i]
			if err := ctx.Err(); err != nil {
				return st, err
			}
			if drained(o.Drain) {
				return st, nil
			}
			if seen[i] > 0 || terminal(i) {
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			if q.Attempts(u) >= o.MaxAttempts {
				// Budget already spent (possibly by other workers):
				// retire the unit without another execution.
				if err := q.DeadLetter(u, errors.New("attempt budget exhausted")); err != nil {
					st.QueueErrors++
					continue
				}
				st.DeadLettered++
				seen[i] = epoch
				progress = true
				continue
			}
			ok, err := q.TryClaim(u)
			if err != nil {
				st.QueueErrors++
				continue
			}
			if !ok {
				st.ClaimConflicts++
				left := 0
				for j := k + 1; j < len(m.Units); j++ {
					if v := (start + j) % len(m.Units); seen[v] == 0 && !terminal(v) {
						left++
					}
				}
				skip = conflictSkip(left)
				continue
			}
			if q.Complete(u) {
				// Another worker stored the unit and released its claim
				// between the check above and this claim.
				q.Release(u)
				seen[i] = epoch
				progress = true
				continue
			}
			epoch++
			done, err := executeClaimed(ctx, q, u, run, o, &st)
			if err != nil && ctx.Err() != nil {
				return st, ctx.Err()
			}
			if done {
				seen[i] = epoch
				progress = true
			}
		}
		if finished() {
			return st, nil
		}
		if !progress {
			// Everything open is claimed by other live workers (or just
			// dead-lettered under us): wait for their claims to resolve.
			select {
			case <-ctx.Done():
				return st, ctx.Err()
			case <-drainChan(o.Drain):
				return st, nil
			case <-time.After(o.Poll):
			}
		}
	}
}

// scanStart is the manifest index where worker id begins each pass: a
// hash of the id, so workers that share a manifest start at different
// units instead of all racing to claim unit 0, then 1, and so on.
// Results are content-addressed, so the order units run in changes no
// output.
func scanStart(id string, units int) int {
	if units == 0 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int(h.Sum64() % uint64(units))
}

// conflictSkip is how many of the left open units in a pass to skip after
// a lost claim: half of them. Another worker's scan reached the unit first,
// and both scans walk the manifest in the same direction, so the next open
// unit is the one that worker claims next; without a skip the two scans
// collide on every unit from there on. Skipped units stay open for the next
// pass.
func conflictSkip(left int) int { return left / 2 }

// executeClaimed runs u under the claim this worker now holds, with
// in-claim retries against the shared attempt budget. It always releases
// the claim. done reports that the unit reached a terminal state (complete
// or dead-lettered) under this claim.
func executeClaimed(ctx context.Context, q *Queue, u Unit, run RunFunc, o WorkerOptions, st *WorkerStats) (done bool, err error) {
	defer q.Release(u)

	// Heartbeat until the unit settles, so the TTL only fires for workers
	// that actually died.
	stop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(o.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = q.Heartbeat(u)
			}
		}
	}()
	defer func() { close(stop); <-hbDone }()

	for {
		runErr := run(ctx, u)
		if runErr == nil {
			if q.Complete(u) {
				st.Completed++
				return true, nil
			}
			// A run that reports success without storing the result
			// would be claimed again forever; spend an attempt instead.
			runErr = errors.New("run returned without storing the result")
		}
		if ctx.Err() != nil {
			// Cancelled mid-unit: release without burning an attempt.
			return false, runErr
		}
		if rfErr := q.RecordFailure(u, runErr); rfErr != nil {
			st.QueueErrors++
			return false, rfErr
		}
		attempts := q.Attempts(u)
		if attempts >= o.MaxAttempts {
			if dlErr := q.DeadLetter(u, runErr); dlErr != nil {
				st.QueueErrors++
				return false, dlErr
			}
			st.DeadLettered++
			return true, runErr
		}
		st.Retried++
		delay := backoffDelay(o.Backoff, o.BackoffMax, attempts)
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// backoffDelay doubles the base per prior attempt, capped at max.
func backoffDelay(base, max time.Duration, attempts int) time.Duration {
	d := base
	for i := 1; i < attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

func drained(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// drainChan converts a possibly-nil drain channel into one selectable in a
// blocking select (nil channels block forever, which is what we want).
func drainChan(ch <-chan struct{}) <-chan struct{} { return ch }
