package mms

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestShardedExchangeAllocationFree pins the cross-shard hot path at zero
// steady-state allocations: sends queued into the flat SoA outbox, the
// barrier drain with its canonical stable sort, and owner-shard injection
// must all run out of reused buffers once warmed. This is the same
// invariant the mms/shard-exchange mvbench entry gates in CI, checked here
// hermetically so a regression fails `go test ./...` with a direct pointer
// at the package that broke it.
func TestShardedExchangeAllocationFree(t *testing.T) {
	const (
		phones  = 2048
		copies  = 64
		targets = 16
	)
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		t.Fatal(err)
	}
	// An invulnerable population keeps reads from infecting (pure delivery
	// load), and duplicate trials skip the trials-map inserts that a real
	// epidemic amortizes across its lifetime.
	vulnerable := make([]bool, phones)
	cfg := DefaultConfig()
	cfg.AllowDuplicateTrials = true
	ss, err := NewShardSet(topo, vulnerable, cfg, 2, time.Minute, root.Stream(3))
	if err != nil {
		t.Fatal(err)
	}
	sender := ss.Shards()[0]
	tbuf := make([]Target, 1)
	barrier := time.Duration(0)
	op := func() {
		for k := 0; k < copies; k++ {
			from := PhoneID(k % (phones / 2))
			tbuf[0] = ValidTarget(PhoneID(phones/2 + k%targets))
			if _, err := sender.Send(from, tbuf); err != nil {
				t.Fatal(err)
			}
		}
		barrier += ss.Window()
		ss.RunWindow(barrier, barrier+ss.Window())
	}
	// Warm until buffers reach steady-state capacity and every target's
	// read-event cap is saturated (readCap events per phone).
	for i := 0; i < 2*targets*readCap/copies; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
		t.Fatalf("cross-shard exchange allocated %.1f times per window, want 0", allocs)
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
		ss, err := NewShardSet(topo, vulnerable, DefaultConfig(), tc.shards, horizon/time.Duration(tc.windows), root.Stream(3))
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
