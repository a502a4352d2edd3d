package mms

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// shardExchange builds a two-shard set and returns one op of the
// cross-shard hot path: 64 virus copies sent from shard 0 to a fixed set
// of 16 shard 1 phones, then one conservative window run through the
// serial RunWindow driver (no pool, so allocation counts do not depend on
// scheduling). The set is warmed until its buffers reach steady-state
// capacity and every target's read-event cap (readCap) is saturated, so
// each op is the steady state.
func shardExchange(tb testing.TB) (op func(), ss *ShardSet) {
	tb.Helper()
	const (
		phones  = 2048
		copies  = 64
		targets = 16
	)
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		tb.Fatal(err)
	}
	// An invulnerable population keeps reads from infecting (pure delivery
	// load), and duplicate trials skip the trial-set inserts that a real
	// epidemic amortizes across its lifetime.
	vulnerable := make([]bool, phones)
	cfg := DefaultConfig()
	cfg.AllowDuplicateTrials = true
	src := root.Stream(3)
	pop, err := NewPopulation(vulnerable, src)
	if err != nil {
		tb.Fatal(err)
	}
	ss, err = NewShardSet(topo, pop, cfg, 2, time.Minute, src)
	if err != nil {
		tb.Fatal(err)
	}
	sender := ss.Shards()[0]
	tbuf := make([]Target, 1)
	barrier := time.Duration(0)
	op = func() {
		for k := 0; k < copies; k++ {
			from := PhoneID(k % (phones / 2))
			tbuf[0] = ValidTarget(PhoneID(phones/2 + k%targets))
			if _, err := sender.Send(from, tbuf); err != nil {
				tb.Fatal(err)
			}
		}
		barrier += ss.Window()
		ss.RunWindow(barrier, barrier+ss.Window())
	}
	for i := 0; i < 2*targets*readCap/copies; i++ {
		op()
	}
	return op, ss
}

// TestShardedExchangeAllocationFree pins the cross-shard hot path at zero
// steady-state allocations: sends queued into the flat SoA outbox, the
// barrier's bucketing by destination, and each destination's canonical
// sort and injection must all run out of reused buffers once warmed. Every send must also be
// accepted, so each op moves all 64 copies across the barrier.
func TestShardedExchangeAllocationFree(t *testing.T) {
	op, ss := shardExchange(t)
	const runs = 50
	before := ss.Metrics().MessagesSent
	if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
		t.Fatalf("cross-shard exchange allocated %.1f times per window, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to the measured runs.
	if sent := ss.Metrics().MessagesSent - before; sent != 64*(runs+1) {
		t.Errorf("sent %d messages over %d ops, want 64 per op", sent, runs+1)
	}
}

// shardExchangeFanIn builds an eight-shard set and returns one op of an
// all-to-all exchange: every shard sends perPair virus copies to each of
// the seven others (448 copies, spread over 8 target phones per
// destination), then one conservative window runs through the serial
// RunWindow driver, so every destination's sort-and-inject task has work.
// Like shardExchange, the set is warmed until its buffers reach
// steady-state capacity and every target's read cap is saturated.
func shardExchangeFanIn(tb testing.TB) (op func(), ss *ShardSet) {
	tb.Helper()
	const (
		phones  = 4096
		shards  = 8
		perPair = 8
		targets = 8
	)
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		tb.Fatal(err)
	}
	vulnerable := make([]bool, phones)
	cfg := DefaultConfig()
	cfg.AllowDuplicateTrials = true
	src := root.Stream(3)
	pop, err := NewPopulation(vulnerable, src)
	if err != nil {
		tb.Fatal(err)
	}
	ss, err = NewShardSet(topo, pop, cfg, shards, time.Minute, src)
	if err != nil {
		tb.Fatal(err)
	}
	tbuf := make([]Target, 1)
	barrier := time.Duration(0)
	op = func() {
		for s, sender := range ss.Shards() {
			for d := 0; d < shards; d++ {
				if d == s {
					continue
				}
				for k := 0; k < perPair; k++ {
					tbuf[0] = ValidTarget(PhoneID(ss.bounds[d] + k%targets))
					if _, err := sender.Send(PhoneID(ss.bounds[s]+k), tbuf); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
		barrier += ss.Window()
		ss.RunWindow(barrier, barrier+ss.Window())
	}
	// Each target receives (shards-1)*perPair/targets copies per op.
	for i := 0; i < 2*readCap*targets/((shards-1)*perPair)+1; i++ {
		op()
	}
	return op, ss
}

// TestShardedExchangeFanInAllocationFree pins the all-to-all exchange at
// zero steady-state allocations, with all 448 copies sent per op.
func TestShardedExchangeFanInAllocationFree(t *testing.T) {
	op, ss := shardExchangeFanIn(t)
	const runs = 50
	before := ss.Metrics().MessagesSent
	if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
		t.Fatalf("fan-in exchange allocated %.1f times per window, want 0", allocs)
	}
	if sent := ss.Metrics().MessagesSent - before; sent != 448*(runs+1) {
		t.Errorf("sent %d messages over %d ops, want 448 per op", sent, runs+1)
	}
}

// TestShardSetRunWindowLoopAllocations pins the window loop's allocation
// cost: per run, a many-shard set pays a constant for its worker pool and
// nothing per window, and a one-shard set, which runs inline, pays
// nothing at all. The idle population isolates the loop — submitting the
// window thunks, joining them, and the empty barrier step — from event
// work.
func TestShardSetRunWindowLoopAllocations(t *testing.T) {
	const phones = 1000
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		t.Fatal(err)
	}
	vulnerable := make([]bool, phones)
	const horizon = 24 * time.Hour
	for _, tc := range []struct {
		shards, windows int
		max             float64
	}{
		{1, 128, 0},
		{4, 128, 10},
		{4, 1024, 10},
	} {
		src := root.Stream(3)
		pop, err := NewPopulation(vulnerable, src)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewShardSet(topo, pop, DefaultConfig(), tc.shards, horizon/time.Duration(tc.windows), src)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := ss.Run(context.Background(), horizon, 2); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, run); allocs > tc.max {
			t.Errorf("%d shards, %d windows: Run allocated %.1f times, want at most %.0f",
				tc.shards, tc.windows, allocs, tc.max)
		}
	}
}
