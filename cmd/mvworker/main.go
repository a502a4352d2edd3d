// Command mvworker is a standalone sweep worker: it attaches to the work
// queue a distributed mvfigures coordinator wrote into a shared -storedir,
// claims (fingerprint, seed) replication units, simulates them, and
// publishes results into the crash-safe store, whose entry is what marks a
// unit done. Any number of workers — in other terminals, or on other
// hosts sharing the directory — drain the same queue; a worker killed at
// any instant loses at most its in-flight unit, which another worker
// recomputes after taking over its stale claim.
//
// Usage:
//
//	mvworker -storedir DIR [-id NAME] [-ttl D] [-heartbeat D]
//	         [-attempts N] [-poll D] [-wait D]
//
// The sweep itself — which figures, how many replications, which seeds —
// is read from the coordinator's manifest, so workers need no study flags
// and cannot disagree with the coordinator about what a unit means: units
// resolve by config fingerprint, and a binary that derives different
// configs fails the unit instead of publishing a mismatched result.
//
// Signals: the first SIGTERM or SIGINT drains gracefully (finish the unit
// in hand, then exit); a second cancels the in-flight unit and exits. Exit
// code 0 means the queue was drained or the drain signal honored; 1 means
// the worker stopped on an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mvworker", flag.ContinueOnError)
	var (
		storeDir  = fs.String("storedir", "", "shared store directory holding the work queue (required)")
		id        = fs.String("id", "", "worker name written into claims and failure logs (default pid-<pid>)")
		ttl       = fs.Duration("ttl", 30*time.Second, "claim TTL: how stale a heartbeat may grow before takeover")
		heartbeat = fs.Duration("heartbeat", 0, "claim renewal interval (default ttl/3)")
		attempts  = fs.Int("attempts", 3, "per-unit attempt budget before dead-lettering")
		poll      = fs.Duration("poll", 200*time.Millisecond, "rescan delay when all open units are claimed elsewhere")
		wait      = fs.Duration("wait", 30*time.Second, "how long to wait for a readable manifest before giving up")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateFlags(*storeDir, *ttl, *heartbeat, *attempts, *poll, *wait); err != nil {
		fmt.Fprintln(os.Stderr, "mvworker:", err)
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "mvworker: draining (finishing unit in hand; signal again to abort)")
		close(drain)
		<-sigs
		fmt.Fprintln(os.Stderr, "mvworker: aborting in-flight unit")
		cancel()
	}()

	_, err := experiment.RunSweepWorker(ctx, experiment.WorkerConfig{
		StoreDir:     *storeDir,
		ID:           *id,
		TTL:          *ttl,
		Heartbeat:    *heartbeat,
		Poll:         *poll,
		MaxAttempts:  *attempts,
		ManifestWait: *wait,
		Drain:        drain,
		Log:          os.Stderr,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "mvworker:", err)
		return 1
	}
	return 0
}

// validateFlags rejects meaningless combinations at parse time with
// actionable messages, mirroring mvsim's response-flag validation.
func validateFlags(storeDir string, ttl, heartbeat time.Duration, attempts int, poll, wait time.Duration) error {
	if storeDir == "" {
		return fmt.Errorf("-storedir is required: workers share the coordinator's store directory (run mvfigures -distributed -storedir DIR first)")
	}
	if ttl <= 0 {
		return fmt.Errorf("-ttl must be positive, got %v", ttl)
	}
	if heartbeat < 0 {
		return fmt.Errorf("-heartbeat must be positive (or 0 for ttl/3), got %v", heartbeat)
	}
	if heartbeat > 0 && heartbeat >= ttl {
		return fmt.Errorf("-heartbeat %v must be shorter than -ttl %v, or live claims look stale and are stolen", heartbeat, ttl)
	}
	if attempts < 1 {
		return fmt.Errorf("-attempts must be >= 1, got %d", attempts)
	}
	if poll <= 0 {
		return fmt.Errorf("-poll must be positive, got %v", poll)
	}
	if wait <= 0 {
		return fmt.Errorf("-wait must be positive, got %v", wait)
	}
	return nil
}
