package main

// Distributed-sweep coordination: with -distributed, mvfigures enumerates
// every cacheable (fingerprint, seed) unit of the selected studies into a
// work-queue manifest inside -storedir, spawns -workers local worker
// processes (re-executions of this binary in -workermode, running exactly
// the cmd/mvworker loop), supervises them — restarting any that crash —
// and, once every unit is stored or dead-lettered, assembles the
// CSVs through the ordinary sweep path with the persistent cache. Assembly
// therefore consumes only store reads for distributed units, so output
// bytes are independent of worker count, crashes, restarts, and scheduling
// — identical to a serial uncached run. Units that dead-letter (or series
// that are uncacheable) are simply recomputed locally during assembly: the
// queue can degrade a sweep's parallelism, never its output.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/workq"
)

// maxWorkerRestarts bounds the crash-loop budget per worker slot; a slot
// that keeps dying stops being restarted and the remaining workers (or
// local assembly) absorb its share.
const maxWorkerRestarts = 8

// runWorkerMode is the -workermode entry point: the supervised worker
// process spawned by a -distributed coordinator. It is cmd/mvworker with
// defaults, living inside this binary so the coordinator never depends on
// a second executable being installed.
func runWorkerMode(storeDir string) error {
	if storeDir == "" {
		return fmt.Errorf("-workermode needs -storedir")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		close(drain) // finish the unit in hand, then exit
		<-sigs
		cancel() // second signal: abort the in-flight unit
	}()
	_, err := experiment.RunSweepWorker(ctx, experiment.WorkerConfig{
		StoreDir: storeDir,
		Drain:    drain,
		Log:      os.Stderr,
	})
	if err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// runDistributed executes the distributed phase: manifest, worker fleet,
// supervision, and the wait for the queue to drain. It returns the final
// unit census and the number of worker restarts. An error from this phase
// is fatal only when the queue could not even be set up; worker-side
// failures degrade to local recomputation at assembly.
func runDistributed(ds *store.DiskStore, spec workq.Spec, units []workq.Unit, nWorkers int, resume bool) (workq.Progress, int, error) {
	q, err := workq.OpenQueue(ds, workq.QueueOptions{WorkerID: "coordinator"})
	if err != nil {
		return workq.Progress{}, 0, err
	}
	if err := prepareQueue(q, spec, units, resume); err != nil {
		return workq.Progress{}, 0, err
	}
	if prog := q.Census(units); prog.Open == 0 {
		// Everything already terminal (a completed sweep resumed):
		// nothing to distribute.
		return prog, 0, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return workq.Progress{}, 0, fmt.Errorf("locate own binary to spawn workers: %w", err)
	}

	drained := make(chan struct{})
	var drainOnce sync.Once
	isDrained := func() bool {
		select {
		case <-drained:
			return true
		default:
			return false
		}
	}

	var restarts atomic.Int64
	var procs sync.Map // slot -> *os.Process
	var wg sync.WaitGroup
	for w := 1; w <= nWorkers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for attempt := 0; ; attempt++ {
				if isDrained() {
					return
				}
				cmd := exec.Command(exe, "-workermode", "-storedir", ds.Dir())
				cmd.Stderr = os.Stderr
				if err := cmd.Start(); err != nil {
					fmt.Printf("worker %d failed to start: %v\n", slot, err)
					return
				}
				if attempt == 0 {
					fmt.Printf("worker %d started pid=%d\n", slot, cmd.Process.Pid)
				} else {
					restarts.Add(1)
					fmt.Printf("worker %d restarted pid=%d (restart %d)\n", slot, cmd.Process.Pid, attempt)
				}
				procs.Store(slot, cmd.Process)
				err := cmd.Wait()
				procs.Delete(slot)
				switch {
				case isDrained():
					return
				case err == nil:
					// Clean exit: the worker saw every unit terminal.
					return
				case attempt+1 >= maxWorkerRestarts:
					fmt.Printf("worker %d exited (%v); restart budget spent, giving up on this slot\n", slot, err)
					return
				default:
					fmt.Printf("worker %d exited (%v); restarting\n", slot, err)
				}
			}
		}(w)
	}

	// Wait until every unit is terminal, or every worker slot has given
	// up (crash loops): assembly recomputes whatever is left either way.
	slotsDone := make(chan struct{})
	go func() { wg.Wait(); close(slotsDone) }()
	ticker := time.NewTicker(150 * time.Millisecond)
	defer ticker.Stop()
	prog := q.Census(units)
	for prog.Open > 0 {
		select {
		case <-slotsDone:
			prog = q.Census(units)
			if prog.Open > 0 {
				fmt.Printf("distributed: all workers gone with %d units open; finishing locally\n", prog.Open)
			}
			return prog, int(restarts.Load()), nil
		case <-ticker.C:
			prog = q.Census(units)
		}
	}
	drainOnce.Do(func() { close(drained) })
	// The queue is drained; ask lingering workers to exit and join them.
	procs.Range(func(_, v any) bool {
		_ = v.(*os.Process).Signal(syscall.SIGTERM)
		return true
	})
	wg.Wait()
	return prog, int(restarts.Load()), nil
}

// prepareQueue makes the queue match this sweep: under -resume an existing
// manifest for the same spec is kept (attempt logs and dead letters
// preserved); anything else — fresh run, unreadable manifest, different
// spec — resets the queue state and publishes the manifest anew. Either
// way, units whose results the store holds are already complete: store
// objects are never touched, because content-addressed results are valid
// regardless of which sweep produced them.
func prepareQueue(q *workq.Queue, spec workq.Spec, units []workq.Unit, resume bool) error {
	if resume {
		if m, err := q.LoadManifest(); err == nil && m.Spec == spec {
			return nil
		}
	}
	if err := q.Reset(); err != nil {
		return err
	}
	return q.WriteManifest(spec, units)
}
