package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

// withGOMAXPROCS runs fn at GOMAXPROCS procs and restores the old value.
// Tests that use it must not run in parallel with others.
func withGOMAXPROCS(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestConcurrentSetupRule pins when setup builds the topology on a second
// goroutine: more than one shard, worker and CPU, and never for the
// paper's one-shard model.
func TestConcurrentSetupRule(t *testing.T) {
	for _, tc := range []struct {
		procs, shards, workers int
		want                   bool
	}{
		{2, 8, 0, true},
		{2, 8, 2, true},
		{2, 8, 1, false},
		{1, 8, 0, false},
		{1, 8, 2, false},
		{2, 1, 0, false},
		{4, 1, 4, false},
	} {
		cfg := populationConfig(false)
		cfg.ShardWorkers = tc.workers
		withGOMAXPROCS(tc.procs, func() {
			if got := concurrentSetup(cfg, tc.shards); got != tc.want {
				t.Errorf("GOMAXPROCS %d, %d shards, %d workers: concurrent %v, want %v",
					tc.procs, tc.shards, tc.workers, got, tc.want)
			}
		})
	}
}

// TestDrawSetupMatchesFullShuffle pins drawSetup's vulnerability mask and
// seed order to the ones a complete Fisher–Yates shuffle on stream 2
// gives, at several population sizes and vulnerable counts k: the mask
// shuffle stops once [0, k) is final, which must not move a single phone.
// The seed order is the mask's phones, ascending, shuffled on stream 6, so
// comparing it compares the mask too.
func TestDrawSetupMatchesFullShuffle(t *testing.T) {
	for _, n := range []int{2, 3, 1_000, 100_000} {
		for _, k := range []int{1, n / 2, int(0.8*float64(n) + 0.5), n} {
			cfg := Config{Population: n, SusceptibleFraction: float64(k) / float64(n)}
			const seed = 7
			root := rng.New(seed)
			draws, err := drawSetup(cfg, root, root.Stream(3))
			if err != nil {
				t.Fatal(err)
			}

			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			rng.New(seed).Stream(2).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			vulnerable := make([]bool, n)
			for _, id := range perm[:k] {
				vulnerable[id] = true
			}
			var want []mms.PhoneID
			for id, v := range vulnerable {
				if v {
					want = append(want, mms.PhoneID(id))
				}
			}
			rng.New(seed).Stream(6).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(draws.seeds, want) {
				t.Errorf("n %d, k %d: seed order %v, want %v", n, k, head(draws.seeds), head(want))
			}
		}
	}
}

// head returns at most the first eight phones of ids, for messages.
func head(ids []mms.PhoneID) []mms.PhoneID { return ids[:min(len(ids), 8)] }

// TestConcurrentSetupMatchesInline builds the many-shard response scenario
// of TestPopulation100kPins inline (GOMAXPROCS 1) and with the topology on
// a second goroutine (GOMAXPROCS 2, where the Barabási–Albert rows also
// split in two). The parts must be identical — topology bytes, mask, user
// streams and seed order — and so must the runs. The overlapped build may
// allocate only a fixed number of objects more than the inline one: the
// AllocsPerRun pins run at GOMAXPROCS 1 and never see this path.
func TestConcurrentSetupMatchesInline(t *testing.T) {
	const seed = 3
	cfg := populationConfig(true)

	root := rng.New(seed)
	netSrc := root.Stream(3)
	topo, err := buildTopology(cfg, root.Stream(1))
	if err != nil {
		t.Fatal(err)
	}
	draws, err := drawSetup(cfg, root, netSrc)
	if err != nil {
		t.Fatal(err)
	}
	var (
		cTopo  *graph.CSR
		cDraws setupDraws
	)
	withGOMAXPROCS(2, func() {
		cTopo, cDraws, err = buildConcurrently(cfg, seed, nil, rng.New(seed), rng.New(seed).Stream(3))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cTopo, topo) {
		t.Error("concurrent setup built a different topology")
	}
	if !reflect.DeepEqual(cDraws.pop, draws.pop) {
		t.Error("concurrent setup drew a different vulnerability mask or user streams")
	}
	if !slices.Equal(cDraws.seeds, draws.seeds) {
		t.Error("concurrent setup drew a different seed order")
	}

	build := func(procs int) (sr *ShardedRun, mallocs uint64) {
		withGOMAXPROCS(procs, func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sr, err = NewShardedRun(cfg, seed)
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		})
		if err != nil {
			t.Fatal(err)
		}
		return sr, mallocs
	}
	inline, inlineMallocs := build(1)
	overlapped, overlappedMallocs := build(2)
	// The overlapped path adds its goroutine's state and stream, the
	// argument copy of cfg, and the row split's spare cursors, tasks and
	// verdicts; 24 is that count, about 20, with room for the runtime.
	const extraMallocs = 24
	t.Logf("build mallocs: inline %d, overlapped %d", inlineMallocs, overlappedMallocs)
	if overlappedMallocs > inlineMallocs+extraMallocs {
		t.Errorf("overlapped build made %d allocations, want at most the inline %d + %d",
			overlappedMallocs, inlineMallocs, extraMallocs)
	}
	if !reflect.DeepEqual(overlapped.set.Population(), inline.set.Population()) {
		t.Error("overlapped and inline builds differ before the run")
	}

	var results [2]*Result
	for i, sr := range []*ShardedRun{inline, overlapped} {
		if results[i], err = sr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(overlapped.set.InfectionEvents(), inline.set.InfectionEvents()) {
		t.Error("infection events differ")
	}
	if overlapped.set.Metrics() != inline.set.Metrics() {
		t.Errorf("metrics differ: %+v vs %+v", overlapped.set.Metrics(), inline.set.Metrics())
	}
	if a, b := overlapped.set.EventsFired(), inline.set.EventsFired(); a != b {
		t.Errorf("events fired %d vs %d", a, b)
	}
	at1, ok1 := overlapped.set.Detected()
	at2, ok2 := inline.set.Detected()
	if at1 != at2 || ok1 != ok2 {
		t.Errorf("detection (%v, %v) vs (%v, %v)", at1, ok1, at2, ok2)
	}
	if results[0].FinalInfected != results[1].FinalInfected || results[1].FinalInfected <= cfg.InitialInfected {
		t.Errorf("final infected %d and %d, want equal and above the %d seeds",
			results[0].FinalInfected, results[1].FinalInfected, cfg.InitialInfected)
	}
}

// TestConcurrentSetupBuilderFailure checks that a CSRBuilder failing on the
// second goroutine fails NewShardedRun as it would inline: the error comes
// back unchanged and a panic is raised again on the caller's goroutine,
// each only after the builder has returned.
func TestConcurrentSetupBuilderFailure(t *testing.T) {
	boom := errors.New("builder failed")
	var returned atomic.Bool
	failing := func(fail func()) Config {
		cfg := populationConfig(false)
		cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
			returned.Store(false)
			defer returned.Store(true)
			// Real work, so a caller that did not wait would return first.
			if _, err := graph.BarabasiAlbertCSR(cfg.Population, 4, src); err != nil {
				return nil, err
			}
			fail()
			return nil, boom
		}
		return cfg
	}
	withGOMAXPROCS(2, func() {
		cfg := failing(func() {})
		if !concurrentSetup(cfg, cfg.Shards) {
			t.Fatal("the failing config does not take the concurrent path")
		}
		sr, err := NewShardedRun(cfg, 1)
		if sr != nil || err != boom {
			t.Errorf("NewShardedRun = %v, %v; want nil, the builder's error unchanged", sr, err)
		}
		if !returned.Load() {
			t.Error("NewShardedRun returned before the builder did")
		}

		cfg = failing(func() { panic(boom) })
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("recovered %v, want the builder's panic value", r)
				}
				if !returned.Load() {
					t.Error("NewShardedRun panicked before the builder returned")
				}
			}()
			_, _ = NewShardedRun(cfg, 1)
			t.Error("NewShardedRun did not panic")
		}()
	})
}
