package experiment

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/workq"
)

// reducedOpts and reducedScale size the sweep benchmarks: every series at
// a tenth of the paper's population, two replications from seed 1.
var (
	reducedOpts  = core.Options{Replications: 2, GridPoints: 50, BaseSeed: 1}
	reducedScale = Scale{Factor: 10}
)

// sweepReduced returns one op of the reduced sweep: the whole study
// matrix at reduced scale through the sweep scheduler, on one shared
// worker pool with a fresh replication cache, so the shared series dedupe
// exactly as in a real sweep.
func sweepReduced(tb testing.TB) func() *SweepResult {
	figs := AllStudies(reducedScale)
	return func() *SweepResult {
		sr, err := RunSweep(context.Background(), figs, reducedOpts,
			SweepOptions{Cache: NewReplicationCache()})
		if err != nil {
			tb.Fatal(err)
		}
		return sr
	}
}

// sweepDistributed returns one op of Figure 2 at reduced scale through the
// distributed path: a coordinator writes the work-queue manifest into a
// fresh store, a worker drains it, two late workers find the queue
// drained, and the sweep assembles from store reads alone. Workers run one
// after another so the allocation count does not depend on scheduling.
func sweepDistributed(tb testing.TB) func() (workq.Progress, *SweepResult) {
	figs, err := SelectStudies("figure2", reducedScale)
	if err != nil {
		tb.Fatal(err)
	}
	spec := workq.Spec{Figure: "figure2", Reps: reducedOpts.Replications, BaseSeed: reducedOpts.BaseSeed,
		Scale: reducedScale.Factor, Grid: reducedOpts.GridPoints}
	units, _ := SweepUnits(figs, reducedOpts)
	return func() (workq.Progress, *SweepResult) {
		storeDir, err := os.MkdirTemp("", "sweep-distributed-")
		if err != nil {
			tb.Fatal(err)
		}
		defer func() {
			if err := os.RemoveAll(storeDir); err != nil {
				tb.Error(err)
			}
		}()
		st, err := store.Open(storeDir, store.DiskOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		coord, err := workq.OpenQueue(st, workq.QueueOptions{WorkerID: "coord"})
		if err != nil {
			tb.Fatal(err)
		}
		if err := coord.WriteManifest(spec, units); err != nil {
			tb.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			cfg := WorkerConfig{StoreDir: storeDir, ID: fmt.Sprintf("bench-%d", w), Poll: time.Millisecond}
			if _, err := RunSweepWorker(context.Background(), cfg); err != nil {
				tb.Fatal(err)
			}
		}
		prog := coord.Census(units)
		ps, err := OpenPersistentSweep(storeDir, false)
		if err != nil {
			tb.Fatal(err)
		}
		sr, err := RunSweep(context.Background(), figs, reducedOpts, SweepOptions{Jobs: 2, Cache: ps.Cache})
		if err != nil {
			tb.Fatal(err)
		}
		if err := ps.Close(); err != nil {
			tb.Fatal(err)
		}
		return prog, sr
	}
}

func BenchmarkSweepReduced(b *testing.B) {
	op := sweepReduced(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkSweepDistributed(b *testing.B) {
	op := sweepDistributed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// lastFinal is the final mean of the last series of the last figure.
func lastFinal(sr *SweepResult) float64 {
	series := sr.Figures[len(sr.Figures)-1].Series
	return series[len(series)-1].FinalMean
}

// TestSweepReducedPins pins what no other test fixes about the reduced
// sweep: how many of its 128 units the cache dedupes, the final means of
// its first and last series, and its allocations per run (the recorded
// count plus 0.1% slack, counted at GOMAXPROCS 1 as testing.AllocsPerRun
// does). The count is 38,046 to 38,060 in a plain build and up to 38,137
// under the race detector, whose runtime adds about 80; the bound is the
// race count's.
func TestSweepReducedPins(t *testing.T) {
	op := sweepReduced(t)
	var sr *SweepResult
	allocs := testing.AllocsPerRun(1, func() { sr = op() })
	t.Logf("%.0f allocs, cache %+v", allocs, sr.Cache)
	if allocs > 38_137+38 {
		t.Errorf("%.0f allocs per sweep, want at most %d", allocs, 38_137+38)
	}
	if sr.Cache.Hits != 40 || sr.Cache.Misses != 88 {
		t.Errorf("cache hits/misses %d/%d, want 40/88", sr.Cache.Hits, sr.Cache.Misses)
	}
	if first, last := sr.Figures[0].Series[0].FinalMean, lastFinal(sr); first != 12.5 || last != 1.5 {
		t.Errorf("final means of the first and last series %v and %v, want 12.5 and 1.5", first, last)
	}
}

// TestSweepDistributedPins pins the distributed sweep's allocations per
// run (recorded count plus 0.1% slack), that no unit needed a retry, and
// its last final mean. That every unit is stored and assembly recomputes
// nothing is TestDistributedSweepAssemblesIdenticalCSV's check. The
// allocation count is compared only without the race detector: this
// workload's JSON, fmt and file paths allocate through sync.Pool, whose
// puts the race runtime drops at random (+250 to +290 allocations).
func TestSweepDistributedPins(t *testing.T) {
	op := sweepDistributed(t)
	var prog workq.Progress
	var sr *SweepResult
	allocs := testing.AllocsPerRun(1, func() { prog, sr = op() })
	t.Logf("%.0f allocs, progress %+v", allocs, prog)
	if !raceEnabled && allocs > 4_413+4 {
		t.Errorf("%.0f allocs per distributed sweep, want at most %d", allocs, 4_413+4)
	}
	if prog.Retried != 0 {
		t.Errorf("%d units retried, want 0", prog.Retried)
	}
	if last := lastFinal(sr); last != 1.5 {
		t.Errorf("last final mean %v, want 1.5", last)
	}
}
