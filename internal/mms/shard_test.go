package mms

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// exchangeTestSet builds an idle set of shards shards over phones phones
// whose sizes differ (phones is not a multiple of shards), so the
// destination offsets are uneven.
func exchangeTestSet(t *testing.T, phones, shards int) *ShardSet {
	t.Helper()
	return exchangeTestSetConfig(t, phones, shards, DefaultConfig())
}

// exchangeTestSetConfig is exchangeTestSet with the network config cfg.
func exchangeTestSetConfig(t *testing.T, phones, shards int, cfg Config) *ShardSet {
	t.Helper()
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		t.Fatal(err)
	}
	src := root.Stream(3)
	pop, err := NewPopulation(make([]bool, phones), src)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardSet(topo, pop, cfg, shards, time.Minute, src)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// pushCopy queues a cross-shard copy in the sender's owner shard's outbox,
// as deliverCopy would during a window.
func pushCopy(ss *ShardSet, at time.Duration, from, target PhoneID) {
	net := ss.nets[ss.ShardOf(from)]
	net.outbox = append(net.outbox, remoteCopy{at, from, target})
}

// pendingPerShard returns each shard queue's pending event count.
func pendingPerShard(ss *ShardSet) []int {
	p := make([]int, len(ss.nets))
	for s, net := range ss.nets {
		p[s] = net.sim.Pending()
	}
	return p
}

// incoming returns destination d's range of the merge batch: after a
// barrier, the copies injected into d in injection order.
func incoming(ss *ShardSet, d int) []remoteCopy {
	return ss.batch[ss.offsets[d]:ss.offsets[d+1]]
}

// checkOutboxesEmpty fails the test if any outbox holds a copy.
func checkOutboxesEmpty(t *testing.T, ss *ShardSet) {
	t.Helper()
	for s, net := range ss.nets {
		if n := len(net.outbox); n != 0 {
			t.Errorf("outbox %d holds %d copies after the exchange, want 0", s, n)
		}
	}
}

// TestExchangeInjectsEachDestinationInCanonicalOrder pushes copies with
// one arrival time into one destination from three source shards, each
// source in reverse order, and checks that the destination injects them in
// (sender, target) order while every other destination stays untouched.
func TestExchangeInjectsEachDestinationInCanonicalOrder(t *testing.T) {
	const dest = 1
	ss := exchangeTestSet(t, 203, 4)
	at := 30 * time.Second
	var want []remoteCopy
	for _, src := range []int{0, 2, 3} {
		lo := ss.bounds[src]
		for k := 0; k < 3; k++ {
			want = append(want, remoteCopy{at, PhoneID(lo + k), PhoneID(ss.bounds[dest] + k)})
		}
	}
	// Push from the last source shard to the first, each in reverse, so
	// neither push order nor source order agrees with the canonical one.
	for i := len(want) - 1; i >= 0; i-- {
		pushCopy(ss, want[i].at, want[i].from, want[i].target)
	}
	before := pendingPerShard(ss)
	ss.RunWindow(time.Minute, 2*time.Minute)
	if got := incoming(ss, dest); !slices.Equal(got, want) {
		t.Errorf("destination %d injected %v, want %v", dest, got, want)
	}
	after := pendingPerShard(ss)
	for s := range after {
		wantAdded := 0
		if s == dest {
			wantAdded = len(want)
		}
		if added := after[s] - before[s]; added != wantAdded {
			t.Errorf("shard %d queue gained %d events, want %d", s, added, wantAdded)
		}
	}
	checkOutboxesEmpty(t, ss)

	// A destination with no incoming copies is a no-op, whether the
	// barrier skips its task or the task runs anyway.
	ss.shardBarrier(0)
	if p := ss.nets[0].sim.Pending(); p != before[0] {
		t.Errorf("empty destination 0 queue holds %d events after its barrier task, want %d", p, before[0])
	}
}

// TestExchangeBucketsShardEdges sends one copy to the first and one to the
// last phone of every shard, each from the next shard over, and checks
// that each copy lands on its owner's queue: an off-by-one in the
// destination offsets moves an edge copy to a neighbour.
func TestExchangeBucketsShardEdges(t *testing.T) {
	const shards = 5
	ss := exchangeTestSet(t, 203, shards)
	for d := 0; d < shards; d++ {
		from := PhoneID(ss.bounds[(d+1)%shards])
		pushCopy(ss, 10*time.Second, from, PhoneID(ss.bounds[d]))
		pushCopy(ss, 20*time.Second, from, PhoneID(ss.bounds[d+1]-1))
	}
	before := pendingPerShard(ss)
	ss.RunWindow(time.Minute, 2*time.Minute)
	after := pendingPerShard(ss)
	for d := 0; d < shards; d++ {
		in := incoming(ss, d)
		if len(in) != 2 {
			t.Errorf("destination %d bucketed %d copies, want 2", d, len(in))
		}
		for i, want := range []int{ss.bounds[d], ss.bounds[d+1] - 1} {
			if i < len(in) && int(in[i].target) != want {
				t.Errorf("destination %d copy %d targets phone %d, want %d", d, i, in[i].target, want)
			}
		}
		if added := after[d] - before[d]; added != 2 {
			t.Errorf("shard %d queue gained %d events, want 2", d, added)
		}
	}
	checkOutboxesEmpty(t, ss)
}

// TestRemoteCopyClampsToBarrier sends a copy whose arrival, a minute
// before midnight, precedes the barrier just after it, with no read
// delay. The read must be scheduled at the barrier itself, the clock the
// destination stands at, and the duplicate-suppression trial must be
// recorded on the barrier's day, not the arrival's.
func TestRemoteCopyClampsToBarrier(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadDelay = rng.Constant{}
	ss := exchangeTestSetConfig(t, 203, 2, cfg)
	from, target := PhoneID(0), PhoneID(ss.bounds[1])
	dest := ss.nets[1]
	barrier := trialPeriod + time.Minute
	pushCopy(ss, trialPeriod-time.Minute, from, target)
	ss.RunWindow(barrier, barrier+time.Minute)
	if p := dest.sim.Pending(); p != 1 {
		t.Fatalf("destination holds %d events after the barrier, want 1", p)
	}
	// The read is due at the barrier, so running to the barrier fires it
	// without moving the clock.
	dest.sim.RunUntil(barrier)
	if r := dest.Metrics().Reads; r != 1 {
		t.Errorf("running to the barrier fired %d reads, want 1", r)
	}
	if now := dest.sim.Now(); now != barrier {
		t.Errorf("destination clock at %v, want the barrier %v", now, barrier)
	}
	if keys := dest.trials.keys(); len(keys) != 1 || keys[0]&0xffff != 1 {
		t.Errorf("trial keys %x, want one on day 1", keys)
	}
}

// TestShardBarrierHooksRunLastInRegistrationOrder checks where the
// per-shard barrier hooks sit in a barrier, under both drivers: each
// shard's hooks see the copies the exchange injected into its queue, and
// run in registration order with the next barrier.
func TestShardBarrierHooksRunLastInRegistrationOrder(t *testing.T) {
	const shards = 4
	for _, driver := range []string{"RunWindow", "Run"} {
		ss := exchangeTestSet(t, 203, shards)
		// One copy into every shard, from the next shard over.
		for d := 0; d < shards; d++ {
			pushCopy(ss, 10*time.Second, PhoneID(ss.bounds[(d+1)%shards]), PhoneID(ss.bounds[d]))
		}
		before := pendingPerShard(ss)
		logs := make([][]string, shards)
		for _, name := range []string{"first", "second"} {
			ss.OnShardBarrier(func(s int, next time.Duration) {
				if len(logs[s]) < 2 { // the first barrier, which injects the copies
					if added := ss.nets[s].sim.Pending() - before[s]; added != 1 {
						t.Errorf("%s: shard %d hook %s sees %d injected copies, want 1", driver, s, name, added)
					}
				}
				logs[s] = append(logs[s], fmt.Sprintf("%s, next %v", name, next))
			})
		}
		want := []string{"first, next 2m0s", "second, next 2m0s"}
		if driver == "RunWindow" {
			ss.RunWindow(time.Minute, 2*time.Minute)
		} else {
			if err := ss.Run(context.Background(), 2*time.Minute, 2); err != nil {
				t.Fatal(err)
			}
			want = append(want, want...)
		}
		for s, got := range logs {
			if !slices.Equal(got, want) {
				t.Errorf("%s: shard %d hooks ran %q, want %q", driver, s, got, want)
			}
		}
	}
}

// TestShardBarrierHookPanicNamesShard checks that a panicking per-shard
// hook fails Run with an error naming the shard and the barrier, and that
// RunWindow re-panics with the same error.
func TestShardBarrierHookPanicNamesShard(t *testing.T) {
	const want = "mms: shard 2 panicked at barrier 1m0s: boom"
	panicking := func() *ShardSet {
		ss := exchangeTestSet(t, 203, 4)
		ss.OnShardBarrier(func(s int, _ time.Duration) {
			if s == 2 {
				panic("boom")
			}
		})
		return ss
	}
	if err := panicking().Run(context.Background(), 3*time.Minute, 2); err == nil || err.Error() != want {
		t.Errorf("Run: error %v, want %q", err, want)
	}
	func() {
		defer func() {
			if err, _ := recover().(error); err == nil || err.Error() != want {
				t.Errorf("RunWindow: panicked with %v, want %q", err, want)
			}
		}()
		panicking().RunWindow(time.Minute, 2*time.Minute)
	}()
}

// TestTrialsKeepOnlyLiveDays checks the duplicate-suppression set's
// lifetime: once the clock crosses a day boundary, only the keys of the
// clock's day and later remain, and suppression within a day is intact.
func TestTrialsKeepOnlyLiveDays(t *testing.T) {
	keyDays := func(n *Network) []uint64 {
		var days []uint64
		for _, key := range n.trials.keys() {
			days = append(days, key&0xffff)
		}
		slices.Sort(days)
		return days
	}

	t.Run("one shard", func(t *testing.T) {
		net, sim := buildNet(t, 10, instantConfig())
		sim.RunUntil(time.Hour)
		net.deliverCopy(0, 1, 0)
		net.deliverCopy(2, 3, 0)
		pending := sim.Pending()
		net.deliverCopy(0, 1, 0) // same pair, same day
		if sim.Pending() != pending {
			t.Fatal("a second copy of one pair on one day was not suppressed")
		}
		if got := keyDays(net); !slices.Equal(got, []uint64{0, 0}) {
			t.Fatalf("day-0 trial key days %v, want [0 0]", got)
		}

		sim.RunUntil(25 * time.Hour)
		pending = sim.Pending()
		net.deliverCopy(0, 1, 0) // a new day: a new trial
		if sim.Pending() != pending+1 {
			t.Fatal("the pair's first copy of a new day was suppressed")
		}
		if got := keyDays(net); !slices.Equal(got, []uint64{1}) {
			t.Errorf("trial key days after the rollover %v, want [1]", got)
		}
	})

	t.Run("two shards", func(t *testing.T) {
		ss := exchangeTestSet(t, 203, 2)
		from, target := PhoneID(0), PhoneID(ss.bounds[1])
		dest := ss.nets[1]
		// advance moves every shard's clock to barrier; send then delivers
		// copies of the pair arriving at the given times at that barrier.
		advance := func(barrier time.Duration) {
			for _, net := range ss.nets {
				net.sim.RunUntil(barrier)
			}
		}
		send := func(barrier time.Duration, arrivals ...time.Duration) {
			for _, at := range arrivals {
				pushCopy(ss, at, from, target)
			}
			ss.RunWindow(barrier, barrier)
		}

		// Arrives on day 1 while the destination's clock is on day 0.
		advance(23 * time.Hour)
		pending := dest.sim.Pending()
		send(23*time.Hour, 24*time.Hour+30*time.Minute)
		if dest.sim.Pending() != pending+1 {
			t.Fatal("the remote copy was not delivered")
		}
		if got := keyDays(dest); !slices.Equal(got, []uint64{1}) {
			t.Fatalf("trial key days %v, want [1]", got)
		}

		// The destination's clock crosses into day 1: the key stays, and a
		// second copy of the pair on day 1 is still suppressed.
		advance(25 * time.Hour)
		pending = dest.sim.Pending()
		send(25*time.Hour, 25*time.Hour)
		if dest.sim.Pending() != pending {
			t.Error("a second copy of the pair on day 1 was not suppressed")
		}
		if got := keyDays(dest); !slices.Equal(got, []uint64{1}) {
			t.Errorf("trial key days after the rollover %v, want [1]", got)
		}

		// Day 2: the day-1 key expires and the pair gets a new trial.
		advance(49 * time.Hour)
		pending = dest.sim.Pending()
		send(49*time.Hour, 49*time.Hour)
		if dest.sim.Pending() != pending+1 {
			t.Error("the pair's first copy of day 2 was suppressed")
		}
		if got := keyDays(dest); !slices.Equal(got, []uint64{2}) {
			t.Errorf("trial key days on day 2 %v, want [2]", got)
		}
	})
}
