package mms

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/pool"
	"repro/internal/rng"
)

// InfectionEvent is one phone's infection, recorded for the global curve.
type InfectionEvent struct {
	At time.Duration
	ID PhoneID
}

// remoteCopy is one cross-shard copy: it left sender from's gateway during
// the window and reaches target's inbox pipeline at at (send time plus
// delivery latency, clamped up to the barrier on injection). PhoneID is an
// int32, so a copy is 16 bytes with no padding.
type remoteCopy struct {
	at     time.Duration
	from   PhoneID
	target PhoneID
}

// compareCopies is the canonical copy order: arrival, then sender, then
// target. Two copies with equal keys are the same copy, so any sort by it
// gives one order.
func compareCopies(a, b remoteCopy) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.target, b.target)
}

// ShardSet partitions a Population into contiguous id ranges, each advanced
// by its own Network on its own event queue, with batched cross-shard MMS
// delivery at fixed window barriers. Every run is a ShardSet: the paper's
// 1,000-phone model is the one-shard configuration, and the 10^5–10^7
// phone regime splits the population across many shards.
//
// With more than one shard, shards run each window in parallel on a worker
// pool and touch only their owned state plus their own outbox. At each
// barrier the coordinator buckets all outboxes by destination shard, opens
// the next window, and merges gateway detection, firing the detection
// callbacks (response.go). Then each shard runs one barrier task on the
// pool: it sorts its incoming copies into the canonical (arrival, sender,
// target) order and injects them, then runs its OnShardBarrier hooks —
// patch-wave release, say. The task touches only that shard's queue and
// phones, and the canonical order restricted to one destination is that
// destination's sort, so the parallel exchange injects exactly what a
// serial global merge would. The trajectory is therefore a pure function
// of (config, seed, shard count, window) — worker count and scheduling
// cannot perturb it. A cross-shard copy whose delivery latency expires
// mid-window is clamped to the barrier, and globally merged response state
// advances only at barriers, so a many-shard trajectory matches the
// one-shard model only in distribution (DESIGN.md §15).
//
// One shard has no exchange partner: it runs inline on the calling
// goroutine, keeps the unsharded stream names, reports gateway detection
// synchronously inside the detecting event, and is the only configuration
// that supports infrastructure fault injection.
type ShardSet struct {
	cfg    Config
	pop    *Population
	nets   []*Network
	bounds []int // len(nets)+1; shard s owns [bounds[s], bounds[s+1])
	window time.Duration

	// Exchange state reused across barriers: batch holds every outbox's
	// copies bucketed by destination shard, destination d's range being
	// batch[offsets[d]:offsets[d+1]]; cursor is the bucketing pass's write
	// position per destination.
	batch   []remoteCopy
	offsets []int
	cursor  []int

	// Window-loop state reused across windows so Run allocates nothing per
	// barrier: winFns are the per-shard window tasks and barrierFns the
	// per-shard barrier tasks submitted to the pool, reading winBarrier
	// (written by the coordinator before each submission round, ordered by
	// the pool's queue lock). winBarrier is also the end of the current
	// window (WindowEnd). A one-shard set runs inline and has no tasks or
	// pool.
	winFns     []func()
	barrierFns []func()
	winBarrier time.Duration
	winErrs    []error
	winWG      sync.WaitGroup

	// Response-mechanism state (response.go): mechanisms attached via
	// AttachResponse, barrier hooks, and the run's one gateway detection
	// record. detectK is the detection threshold, floored at 1.
	responses  []Response
	onDetected []func(at time.Duration)
	onShard    []func(shard int, next time.Duration)
	detectK    int
	detected   bool
	detectedAt time.Duration
	detScratch []time.Duration // reused merge buffer for mergeDetection
}

// unbounded is the window end of a set no Run or RunWindow call drives.
const unbounded = time.Duration(math.MaxInt64)

// NewShardSet builds shards Networks over one shared Population. The one
// feature that would need cross-shard synchronization inside a window is
// rejected with more than one shard: infrastructure faults (outage windows
// and churn mutate global MMSC state mid-window) run on one shard only.
// Response mechanisms attach via AttachResponse; background legitimate
// traffic schedules per shard on the owned ranges. pop is a population
// from NewPopulation, which the set takes over and attaches topo to; src
// seeds the shards' delivery streams and is normally the source pop's
// user streams came from.
func NewShardSet(topo *graph.CSR, pop *Population, cfg Config, shards int, window time.Duration, src *rng.Source) (*ShardSet, error) {
	return newShardSet(topo, pop, cfg, shards, window, src, nil)
}

// newShardSet is NewShardSet with an optional caller-supplied event queue
// for a one-shard set (NewCSR); nil makes a fresh queue per shard.
func newShardSet(topo *graph.CSR, pop *Population, cfg Config, shards int, window time.Duration, src *rng.Source, sim *des.Simulation) (*ShardSet, error) {
	if pop == nil {
		return nil, errors.New("mms: nil population")
	}
	if src == nil {
		return nil, errors.New("mms: nil rng source")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := pop.N()
	if shards < 1 || shards > n {
		return nil, fmt.Errorf("mms: shard count %d outside [1,%d]", shards, n)
	}
	if window <= 0 {
		return nil, errors.New("mms: shard window must be positive")
	}
	if cfg.Faults.Active() && shards > 1 {
		return nil, errors.New("mms: fault injection requires a one-shard run")
	}
	if err := pop.attach(topo); err != nil {
		return nil, err
	}
	ss := &ShardSet{
		cfg:        cfg,
		pop:        pop,
		nets:       make([]*Network, shards),
		bounds:     make([]int, shards+1),
		window:     window,
		winBarrier: unbounded,
		detectK:    max(cfg.GatewayDetectThreshold, 1),
	}
	if shards > 1 {
		ss.offsets = make([]int, shards+1)
		ss.cursor = make([]int, shards)
		ss.winFns = make([]func(), shards)
		ss.barrierFns = make([]func(), shards)
		ss.winErrs = make([]error, shards)
	}
	for s := 0; s <= shards; s++ {
		ss.bounds[s] = s * n / shards
	}
	for s := 0; s < shards; s++ {
		s := s
		sim := sim
		if sim == nil {
			sim = des.New()
		}
		net := newShardNetwork(ss, ss.bounds[s], ss.bounds[s+1]-ss.bounds[s], sim)
		if shards == 1 {
			// One shard keeps the unsharded stream names ("net", "flt",
			// per-phone churn), so the paper-scale trajectory does not
			// depend on the shard machinery around it.
			src.StreamInto(&net.netSrc, 0x6e6574) // "net"
			net.attachFaults(src)
		} else {
			// Per-shard delivery jitter stream: the name family sits between
			// the one-shard "net" name and the per-phone "usr" family.
			src.StreamInto(&net.netSrc, 0x6e6574<<16|uint64(s)) // "net" | shard
			ss.winFns[s] = ss.shardTask(s, "in its window at", func() { sim.RunUntil(ss.winBarrier) })
			ss.barrierFns[s] = ss.shardTask(s, "at barrier", func() { ss.shardBarrier(s) })
		}
		if cfg.LegitSendInterval != nil {
			// Background legitimate traffic is shard-local by construction:
			// each owned phone's sends draw from its own per-phone user
			// stream (global stream names), so the schedule is identical
			// for any shard layout of the same population.
			for i := ss.bounds[s]; i < ss.bounds[s+1]; i++ {
				net.scheduleLegitSend(PhoneID(i))
			}
		}
		ss.nets[s] = net
	}
	return ss, nil
}

// shardTask wraps body as one of shard s's pool tasks: it signals winWG when
// done and turns a panic into a winErrs entry naming the shard, the phase
// and the shard's clock — the panicking event's time in a window, the
// barrier in a barrier task — so a crashing task fails the run instead of
// the process.
func (ss *ShardSet) shardTask(s int, phase string, body func()) func() {
	return func() {
		defer ss.winWG.Done()
		defer func() {
			if r := recover(); r != nil {
				ss.winErrs[s] = fmt.Errorf("mms: shard %d panicked %s %v: %v", s, phase, ss.nets[s].sim.Now(), r)
			}
		}()
		body()
	}
}

// runTask runs one prebuilt shardTask thunk on p, or inline when p is nil;
// join waits for every task run since the last join and returns their
// errors.
func (ss *ShardSet) runTask(p *pool.Pool, fn func()) {
	ss.winWG.Add(1)
	if p == nil {
		fn()
	} else {
		p.Submit(fn)
	}
}

func (ss *ShardSet) join() error {
	ss.winWG.Wait()
	return errors.Join(ss.winErrs...)
}

// Shards returns the per-shard networks, in id order. Virus engines attach
// to each shard's network; infection callbacks fire on the owner shard.
func (ss *ShardSet) Shards() []*Network { return ss.nets }

// Population returns the shared SoA phone state.
func (ss *ShardSet) Population() *Population { return ss.pop }

// N returns the population size.
func (ss *ShardSet) N() int { return ss.pop.N() }

// Window returns the exchange-barrier interval.
func (ss *ShardSet) Window() time.Duration { return ss.window }

// WindowEnd returns the barrier that closes the current window. Work a
// mechanism commits now may be scheduled before it; work landing later
// waits for an OnShardBarrier hook. During barrier synchronization the current
// window is the upcoming one. A set that no Run or RunWindow call drives —
// a network from NewCSR advanced through its own Sim — has one unbounded
// window.
func (ss *ShardSet) WindowEnd() time.Duration { return ss.winBarrier }

// State returns phone id's infection state (see Network.State).
func (ss *ShardSet) State(id PhoneID) State { return ss.nets[0].State(id) }

// ShardOf returns the index of the shard owning phone id. Hand-rolled
// binary search over the bounds: the barrier's bucketing pass calls this
// twice per cross-shard copy, and sort.Search's predicate closure would
// allocate per call.
func (ss *ShardSet) ShardOf(id PhoneID) int {
	lo, hi := 0, len(ss.nets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ss.bounds[mid+1] > int(id) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// SeedInfection infects the phone immediately on its owner shard.
func (ss *ShardSet) SeedInfection(id PhoneID) error {
	if !ss.pop.valid(id) {
		return fmt.Errorf("mms: seed phone %d out of range", id)
	}
	return ss.nets[ss.ShardOf(id)].SeedInfection(id)
}

// Run advances every shard to the horizon in lock-step windows, exchanging
// cross-shard deliveries and running barrier synchronization at each
// barrier. More than one shard runs on a worker pool of the given width
// (GOMAXPROCS when <= 0), and a panic in any shard's task propagates as an
// error carrying the shard index. One shard runs inline on the calling
// goroutine, where a panic unwinds to the caller with its stack. ctx is
// checked between windows: an event flood at a single instant defers
// cancellation until the instant completes.
func (ss *ShardSet) Run(ctx context.Context, horizon time.Duration, workers int) error {
	if horizon <= 0 {
		return errors.New("mms: horizon must be positive")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var p *pool.Pool
	if len(ss.nets) > 1 {
		p = pool.New(workers)
		defer p.Close()
	}
	for t := ss.window; ; t += ss.window {
		t = min(t, horizon)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mms: run cancelled at t=%v: %w", ss.nets[0].sim.Now(), err)
		}
		if err := ss.step(p, t, min(t+ss.window, horizon)); err != nil {
			return err
		}
		if t >= horizon {
			return nil
		}
	}
}

// RunWindow performs the window step Run would, with no pool: it advances
// every shard to barrier serially on the calling goroutine, then runs the
// exchange and barrier synchronization, each shard's barrier task inline.
// next is the following barrier (responses use it to commit work landing
// inside the upcoming window; pass barrier again at the horizon).
// Benchmarks drive RunWindow directly to meter the exchange hot path;
// trajectories are identical to Run's because the step is. With more than
// one shard, a panic in any shard's task re-panics with an error naming
// the shard.
func (ss *ShardSet) RunWindow(barrier, next time.Duration) {
	if err := ss.step(nil, barrier, next); err != nil {
		panic(err)
	}
}

// step runs the window ending at t on every shard, then the barrier that
// opens the window ending at next, in order: bucket the outboxes by
// destination, open the next window, merge gateway detection and fire its
// callbacks, then run every shard's barrier task (shardBarrier). Shard
// tasks run on p, or inline when p is nil. One shard runs its window and
// its hooks inline, unwrapped, so a panic keeps its stack; it has no
// outboxes, and it records detection inside the detecting event. Skipped
// work is genuinely free: a barrier with no copies for a shard and no
// hooks submits no task for it.
func (ss *ShardSet) step(p *pool.Pool, t, next time.Duration) error {
	// The winBarrier writes are ordered before the tasks' reads by the
	// pool's queue lock; the tasks are pre-built so the steady-state step
	// allocates nothing.
	ss.winBarrier = t
	if len(ss.nets) == 1 {
		ss.nets[0].sim.RunUntil(t)
		ss.winBarrier = next
		ss.shardBarrier(0)
		return nil
	}
	for _, fn := range ss.winFns {
		ss.runTask(p, fn)
	}
	if err := ss.join(); err != nil {
		return err
	}
	ss.bucket()
	ss.winBarrier = next
	if !ss.detected && len(ss.onDetected) > 0 {
		if at, ok := ss.mergeDetection(); ok {
			ss.detect(at)
		}
	}
	for s, fn := range ss.barrierFns {
		if len(ss.onShard) > 0 || ss.offsets[s] != ss.offsets[s+1] {
			ss.runTask(p, fn)
		}
	}
	return ss.join()
}

// bucket moves every outbox's copies into batch grouped by destination
// shard — source-shard order, then push order, within each group — and
// sets offsets to the group bounds. It runs between windows, when no shard
// event loop is live. The batch, offsets and outboxes are reused across
// windows, so the steady-state exchange performs zero allocations (pinned
// by TestShardedExchangeAllocationFree).
func (ss *ShardSet) bucket() {
	off := ss.offsets
	clear(off)
	for _, net := range ss.nets {
		for _, c := range net.outbox {
			off[ss.ShardOf(c.target)+1]++
		}
	}
	for d := 1; d < len(off); d++ {
		off[d] += off[d-1]
	}
	total := off[len(off)-1]
	if total == 0 {
		return
	}
	ss.batch = slices.Grow(ss.batch[:0], total)[:total]
	cur := ss.cursor
	copy(cur, off)
	for _, net := range ss.nets {
		for _, c := range net.outbox {
			d := ss.ShardOf(c.target)
			ss.batch[cur[d]] = c
			cur[d]++
		}
		net.outbox = net.outbox[:0]
	}
}

// shardBarrier is shard s's task at a barrier: it sorts the copies bucketed
// for s into the canonical (arrival, sender, target) order and injects
// them, then runs s's OnShardBarrier hooks in registration order with the
// next barrier, winBarrier. It touches only s's state — its queue, its
// trial set and its own phones' population entries — so shards run it in
// parallel, and s's hooks see every copy injected into its queue at this
// barrier.
func (ss *ShardSet) shardBarrier(s int) {
	if ss.offsets != nil { // one shard exchanges nothing
		in := ss.batch[ss.offsets[s]:ss.offsets[s+1]]
		slices.SortFunc(in, compareCopies)
		for _, c := range in {
			ss.nets[s].receiveRemote(c)
		}
	}
	for _, fn := range ss.onShard {
		fn(s, ss.winBarrier)
	}
}

// receiveRemote applies one cross-shard copy on the owner network: the
// arrival clamps up to the network's clock, which stands at the barrier
// (the window the copy was sent in is already closed), then the inbox
// admission rule runs, the read delay is sampled from the target's own
// user stream, and the read event is scheduled on the owner's queue.
func (n *Network) receiveRemote(c remoteCopy) {
	arrival := max(c.at, n.sim.Now())
	if !n.admit(c.from, c.target, arrival) {
		return
	}
	delay := n.cfg.ReadDelay.Sample(&n.pop.userSrc[c.target])
	if _, err := n.sim.ScheduleArgAt(arrival+delay, n.readH, packArg(c.target, c.from, 0)); err != nil {
		return
	}
}

// InfectedCount sums the infected counts across shards.
func (ss *ShardSet) InfectedCount() int {
	c := 0
	for _, net := range ss.nets {
		c += net.InfectedCount()
	}
	return c
}

// SusceptibleCount sums the still-vulnerable counts across shards.
func (ss *ShardSet) SusceptibleCount() int {
	c := 0
	for _, net := range ss.nets {
		c += net.SusceptibleCount()
	}
	return c
}

// EventsFired sums the events executed across all shard queues.
func (ss *ShardSet) EventsFired() uint64 {
	var f uint64
	for _, net := range ss.nets {
		f += net.sim.Fired()
	}
	return f
}

// Metrics merges the per-shard network counters.
func (ss *ShardSet) Metrics() Metrics {
	var sum Metrics
	sv := reflect.ValueOf(&sum).Elem()
	for _, net := range ss.nets {
		mv := reflect.ValueOf(net.Metrics())
		for i := 0; i < sv.NumField(); i++ {
			sv.Field(i).SetUint(sv.Field(i).Uint() + mv.Field(i).Uint())
		}
	}
	return sum
}

// InfectionEvents returns every infection so far sorted by (time, id),
// read from the shared population's infection times: infection is
// permanent, so each infected phone contributes exactly one event, and the
// log is the same for any worker count.
func (ss *ShardSet) InfectionEvents() []InfectionEvent {
	all := make([]InfectionEvent, 0, ss.InfectedCount())
	for i, st := range ss.pop.state {
		if st == StateInfected {
			all = append(all, InfectionEvent{At: ss.pop.infectedAt[i], ID: PhoneID(i)})
		}
	}
	slices.SortFunc(all, func(a, b InfectionEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return all
}

// BuildInfectionTree assembles the global transmission tree (the infector
// array is shared, so any shard's view spans the population).
func (ss *ShardSet) BuildInfectionTree() InfectionTree {
	return ss.nets[0].BuildInfectionTree()
}
