package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/store"
	"repro/internal/workq"
)

// WorkerConfig configures one sweep worker process (cmd/mvworker, or
// mvfigures' supervised worker mode — both run exactly this code, so a
// two-terminal manual worker and a coordinator-spawned one behave
// identically).
type WorkerConfig struct {
	// StoreDir is the shared store directory; the queue lives under
	// StoreDir/workq.
	StoreDir string
	// ID names the worker in claims and failure logs; empty derives from
	// the pid.
	ID string
	// TTL, Heartbeat, Poll, MaxAttempts, Backoff tune the queue protocol;
	// zero values take workq's defaults.
	TTL, Heartbeat, Poll, Backoff time.Duration
	MaxAttempts                   int
	// ManifestWait bounds how long the worker waits for a readable
	// manifest to appear before giving up (default 30s).
	ManifestWait time.Duration
	// Drain, when closed, finishes the unit in hand and exits cleanly —
	// the SIGTERM path.
	Drain <-chan struct{}
	// Log, when non-nil, receives one-line progress notes.
	Log io.Writer
}

// RunSweepWorker is the pull-execute-publish loop: open the shared store,
// wait for the coordinator's manifest, rebuild the study matrix from its
// spec, then drain units through workq.RunWorker. It returns this worker's
// stats; err is nil on a clean drain (all units terminal) or graceful
// drain request.
func RunSweepWorker(ctx context.Context, wc WorkerConfig) (workq.WorkerStats, error) {
	var st workq.WorkerStats
	if wc.StoreDir == "" {
		return st, fmt.Errorf("experiment: sweep worker needs a store directory")
	}
	if wc.ManifestWait <= 0 {
		wc.ManifestWait = 30 * time.Second
	}
	ds, err := store.Open(wc.StoreDir, store.DiskOptions{})
	if err != nil {
		return st, err
	}
	// Append to the shared journal without truncating it: the journal is
	// the sweep's, not this worker's. Replayed keys are the coordinator's
	// business; workers ignore them.
	j, _, err := store.OpenJournal(nil, ds.JournalPath(), true)
	if err != nil {
		return st, fmt.Errorf("experiment: open sweep journal: %w", err)
	}
	defer func() { _ = j.Close() }()

	q, err := workq.OpenQueue(ds, workq.QueueOptions{
		TTL:      wc.TTL,
		WorkerID: wc.ID,
	})
	if err != nil {
		return st, err
	}
	waitCtx, cancel := context.WithTimeout(ctx, wc.ManifestWait)
	m, err := workq.WaitManifest(waitCtx, q, 0)
	cancel()
	if err != nil {
		return st, err
	}
	figs, err := SelectStudies(m.Spec.Figure, Scale{Factor: m.Spec.Scale})
	if err != nil {
		return st, fmt.Errorf("experiment: manifest spec: %w", err)
	}
	if wc.Log != nil {
		_, _ = fmt.Fprintf(wc.Log, "worker %s: manifest %s: %d units\n", q.WorkerID(), m.Spec.Figure, len(m.Units))
	}
	st, err = workq.RunWorker(ctx, q, m, UnitRunner(ds, j, figs), workq.WorkerOptions{
		Poll:        wc.Poll,
		Heartbeat:   wc.Heartbeat,
		MaxAttempts: wc.MaxAttempts,
		Backoff:     wc.Backoff,
		Drain:       wc.Drain,
	})
	if wc.Log != nil {
		_, _ = fmt.Fprintf(wc.Log, "worker %s: done: %d completed, %d retried, %d dead-lettered, %d claim conflicts\n",
			q.WorkerID(), st.Completed, st.Retried, st.DeadLettered, st.ClaimConflicts)
	}
	return st, err
}
