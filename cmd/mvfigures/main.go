// Command mvfigures regenerates every figure of the paper (Figures 1-7),
// the Section 5.3 scaling study, the Section 6 combined-mechanism
// extension, and the sharded-response study that locks down the
// conservative-window response protocol (DESIGN.md §15). For each study it
// writes a CSV of the aggregated infection
// curves, renders the figure as a terminal chart, and evaluates the paper's
// in-text quantitative claims.
//
// All selected studies run through one sweep: every (study, series,
// replication) unit is scheduled onto a single worker pool (-jobs wide),
// and a content-addressed cache deduplicates scenarios shared across
// studies, so e.g. the unprotected Baseline is simulated once per seed no
// matter how many figures reference it. Output bytes are identical for any
// -jobs value, cache on or off.
//
// Usage:
//
//	mvfigures [-figure all|figure1|...|scaling|combined] [-reps N]
//	          [-seed S] [-scale F] [-grid N] [-jobs N] [-nocache]
//	          [-storedir DIR] [-resume] [-distributed] [-workers N]
//	          [-out DIR] [-quiet]
//
// With -storedir the replication cache gains a persistent tier: results
// are written to a crash-safe content-addressed store and completed units
// are journaled, so a killed sweep rerun with the same flags plus -resume
// replays finished work from disk and loses at most in-flight
// replications. Output bytes are identical to an uninterrupted run.
//
// With -distributed the sweep's cacheable units are additionally published
// as a filesystem work queue inside -storedir, and -workers local worker
// processes (plus any mvworker processes attached to the same directory)
// drain it before assembly. A unit is done once its result is in the
// store; crashed workers are restarted and their stale claims taken over,
// so the CSVs stay byte-identical to a serial run no matter how many
// workers die.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/workq"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mvfigures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figureID = flag.String("figure", "all", "study to run: all, figure1..figure7, scaling, combined, sharded-response, neg-*")
		reps     = flag.Int("reps", 10, "replications per series")
		seed     = flag.Uint64("seed", 1, "base random seed")
		scale    = flag.Int("scale", 1, "population divisor (1 = paper's 1000 phones)")
		grid     = flag.Int("grid", 200, "time-grid points per curve")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "worker-pool width shared by all studies")
		nocache  = flag.Bool("nocache", false, "disable the replication result cache")
		storeDir = flag.String("storedir", "", "persist replication results to this directory (content-addressed store + sweep journal)")
		resume   = flag.Bool("resume", false, "resume a killed sweep: replay the store directory's journal and skip finished units")
		outDir   = flag.String("out", "results", "output directory for CSV files")
		quiet    = flag.Bool("quiet", false, "suppress terminal charts")

		distributed = flag.Bool("distributed", false, "drain the sweep through a filesystem work queue in -storedir before assembly")
		workers     = flag.Int("workers", 4, "local worker processes to spawn and supervise (with -distributed)")
		workerMode  = flag.Bool("workermode", false, "run as a supervised sweep worker (internal; spawned by -distributed)")
	)
	flag.Parse()

	if *workerMode {
		return runWorkerMode(*storeDir)
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be >= 1, got %d", *jobs)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps must be >= 1, got %d", *reps)
	}
	if *grid < 1 {
		return fmt.Errorf("-grid must be >= 1, got %d", *grid)
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be >= 1, got %d", *scale)
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be >= 1: seed 0 means \"unset\" and would run as seed 1")
	}
	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume needs -storedir: the journal to resume lives in the store directory")
	}
	if *nocache && *storeDir != "" {
		return fmt.Errorf("-nocache and -storedir conflict: the persistent store is a cache tier")
	}
	if *distributed && *storeDir == "" {
		return fmt.Errorf("-distributed needs -storedir: workers coordinate through a work queue inside the shared store directory")
	}
	if *distributed && *workers < 1 {
		return fmt.Errorf("-workers must be >= 1 with -distributed, got %d (use mvworker in other terminals if you want zero local workers)", *workers)
	}
	if !*distributed {
		var workersSet bool
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				workersSet = true
			}
		})
		if workersSet {
			return fmt.Errorf("-workers only applies with -distributed (did you mean -jobs %d for the in-process pool?)", *workers)
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	sc := experiment.Scale{Factor: *scale}
	opts := core.Options{Replications: *reps, BaseSeed: *seed, GridPoints: *grid}

	figures, err := experiment.SelectStudies(*figureID, sc)
	if err != nil {
		return err
	}

	so := experiment.SweepOptions{Jobs: *jobs}
	var ps *experiment.PersistentSweep
	switch {
	case *storeDir != "":
		ps, err = experiment.OpenPersistentSweep(*storeDir, *resume)
		if err != nil {
			return err
		}
		defer func() { _ = ps.Close() }()
		so.Cache = ps.Cache
		if *resume {
			fmt.Printf("resume: %d units already complete in %s\n", ps.Resumed, *storeDir)
		}
	case !*nocache:
		so.Cache = experiment.NewReplicationCache()
	}
	if *distributed {
		spec := workq.Spec{Figure: *figureID, Reps: *reps, BaseSeed: *seed, Scale: *scale, Grid: *grid}
		units, uncacheable := experiment.SweepUnits(figures, opts)
		fmt.Printf("distributed: %d units across %d worker processes (%d uncacheable series computed locally)\n",
			len(units), *workers, uncacheable)
		prog, restarts, err := runDistributed(ps.Store, spec, units, *workers, *resume)
		if err != nil {
			return err
		}
		fmt.Printf("distributed: %d done, %d dead-lettered, %d retried, %d open, %d worker restarts\n",
			prog.Done, prog.Dead, prog.Retried, prog.Open, restarts)
	}
	sr, sweepErr := experiment.RunSweep(context.Background(), figures, opts, so)
	if sr == nil {
		return sweepErr
	}

	for fi, fr := range sr.Figures {
		if err := sr.FigureErrs[fi]; err != nil {
			fmt.Fprintf(os.Stderr, "mvfigures: %s failed: %v\n", figures[fi].ID, err)
			continue
		}
		path := filepath.Join(*outDir, fr.Figure.ID+".csv")
		var buf bytes.Buffer
		if err := fr.WriteCSV(&buf); err != nil {
			return err
		}
		if err := store.WriteFileAtomic(store.OS, path, buf.Bytes()); err != nil {
			return err
		}
		fmt.Println(fr.Summary())
		if !*quiet {
			chart, err := fr.RenderASCII()
			if err != nil {
				return err
			}
			fmt.Println(chart)
		}
		for _, check := range claimsFor(fr) {
			fmt.Println(check)
		}
		fmt.Printf("wrote %s\n\n", path)
	}
	if so.Cache != nil {
		st := sr.Cache
		fmt.Printf("sweep: %d jobs, %s elapsed, cache %d mem hits / %d disk hits / %d misses (%.1f%% hit rate, %d uncacheable)\n",
			*jobs, sr.Elapsed.Round(1e6), st.Hits, st.DiskHits, st.Misses, 100*st.HitRate(), st.Uncacheable)
		if *storeDir != "" {
			fmt.Printf("store: %d peer hits, %d quarantined, %d I/O errors\n",
				st.PeerHits, st.Quarantined, st.StoreErrors)
		}
	}
	return sweepErr
}

// claimsFor evaluates the study's claim checks; an evaluation error
// becomes one failing check, and studies without checks return nothing.
func claimsFor(fr *experiment.FigureResult) []experiment.Check {
	if fr.Figure.Claims == nil {
		return nil
	}
	checks, err := experiment.EvaluateClaims(fr)
	if err != nil {
		return []experiment.Check{{
			ID:        fr.Figure.ID,
			Statement: "claim evaluation",
			Measured:  err.Error(),
		}}
	}
	return checks
}
