package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/virus"
)

// graphStream is the stream a replication of seed builds its topology
// from.
func graphStream(seed uint64) *rng.Source { return rng.New(seed).Stream(1) }

// TestTopologyTableBuildsOnceUnderConcurrency asks for one key from many
// goroutines at once (run it under -race): the table builds it once and
// every asker gets the same pointer. Another seed or another graph config
// is another key.
func TestTopologyTableBuildsOnceUnderConcurrency(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(virus.Virus1())
	tab := NewTopologyTable()

	const askers = 8
	got := make([]*graph.CSR, askers)
	errs := make([]error, askers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i], errs[i] = tab.topology(cfg, 7, graphStream(7))
		}()
	}
	start.Done()
	done.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("asker %d: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("asker %d got topology %p, asker 0 got %p", i, got[i], got[0])
		}
	}
	if n := tab.Builds(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}

	other, err := tab.topology(cfg, 8, graphStream(8))
	if err != nil {
		t.Fatal(err)
	}
	denser := cfg
	denser.Graph.MeanDegree++
	third, err := tab.topology(denser, 7, graphStream(7))
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] || third == got[0] || other == third {
		t.Error("distinct keys share a topology")
	}
	if n := tab.Builds(); n != 3 {
		t.Errorf("%d builds for three keys, want 3", n)
	}
}

// TestTopologyTableMatchesFreshBuild checks that a table entry is the
// topology buildTopology draws for the same config and seed, keyed by
// Population whatever cfg.Graph.N says, and that a replication run through
// the table returns exactly RunOnce's result.
func TestTopologyTableMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(virus.Virus1())
	cfg.Graph.N = 5 // overridden by Population, in the key as in the build
	tab := NewTopologyTable()
	for seed := uint64(1); seed <= 3; seed++ {
		cached, err := tab.topology(cfg, seed, graphStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := buildTopology(cfg, graphStream(seed))
		if err != nil {
			t.Fatal(err)
		}
		if cached.N() != cfg.Population || !reflect.DeepEqual(cached, fresh) {
			t.Errorf("seed %d: table topology differs from a fresh build (offsets or targets)", seed)
		}
		again, err := tab.topology(cfg, seed, graphStream(seed))
		if err != nil || again != cached {
			t.Errorf("seed %d: second ask got %p (%v), want the stored %p", seed, again, err, cached)
		}

		want, err := RunOnce(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, repErr := tab.RunReplication(context.Background(), cfg, 0, seed)
		if repErr != nil {
			t.Fatal(repErr)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("seed %d: replication through the table differs from RunOnce", seed)
		}
	}
	if n := tab.Builds(); n != 3 {
		t.Errorf("%d builds for three seeds, want 3", n)
	}
}

// TestTopologyTableBypassesBuilders checks that CSRBuilder configs, whose
// topology is an opaque function, build on every ask and never enter the
// table.
func TestTopologyTableBypassesBuilders(t *testing.T) {
	t.Parallel()
	base := smallConfig(virus.Virus1())
	er := base
	er.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.ErdosRenyi(base.Population, 0.1, src)
	}
	ba := base
	ba.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.BarabasiAlbertCSR(base.Population, 3, src)
	}
	tab := NewTopologyTable()
	for _, cfg := range []Config{er, ba} {
		a, err := tab.topology(cfg, 1, graphStream(1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := tab.topology(cfg, 1, graphStream(1))
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Error("builder config served a stored topology")
		}
	}
	if n := tab.Builds(); n != 0 {
		t.Errorf("table built %d topologies for builder configs, want 0", n)
	}
	stored := 0
	tab.entries.Range(func(any, any) bool { stored++; return true })
	if stored != 0 {
		t.Errorf("table holds %d entries for builder configs, want 0", stored)
	}
}

// TestTopologyTableDropsFailedBuild checks that a failed build is not
// stored: every ask fails afresh and the table stays empty.
func TestTopologyTableDropsFailedBuild(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(virus.Virus1())
	cfg.Graph.MeanDegree = float64(cfg.Population) // infeasible
	tab := NewTopologyTable()
	for i := 0; i < 2; i++ {
		if _, err := tab.topology(cfg, 1, graphStream(1)); err == nil {
			t.Fatal("infeasible graph config built")
		}
	}
	stored := 0
	tab.entries.Range(func(any, any) bool { stored++; return true })
	if stored != 0 || tab.Builds() != 0 {
		t.Errorf("failed builds left %d entries and %d builds, want none", stored, tab.Builds())
	}
}
