// Package core assembles the full virus-propagation study: it builds the
// phone population over a generated contact graph, attaches a virus
// scenario and any response mechanisms, runs replicated discrete-event
// simulations in parallel with independent random streams, and aggregates
// infection curves with confidence intervals.
//
// This is the paper's primary contribution — the parameterized model whose
// outputs are Figures 1–7 — expressed as a reusable Go API on top of the
// substrates in internal/{rng,des,graph,mms,virus,response}.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/curve"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/virus"
)

// Config describes one experiment scenario: population, topology, virus,
// network/user parameters, response mechanisms, and horizon.
type Config struct {
	// Population is the number of phones (paper: 1,000).
	Population int
	// SusceptibleFraction is the vulnerable share (paper: 0.8).
	SusceptibleFraction float64
	// Graph configures the contact-list topology. Its N is overridden by
	// Population.
	Graph graph.PowerLawConfig
	// GraphBuilder is retired: Validate rejects a non-nil value. The field
	// stays only because the benchmark module reads it
	// (perfbench/paper.go:470), and that module changes only with the
	// benchmark itself; delete it then.
	GraphBuilder func(src *rng.Source) (*graph.CSR, error)
	// CSRBuilder, if non-nil, replaces the power-law generator: topology
	// sensitivity studies and the 10^5+-phone scale runs (see
	// graph.BarabasiAlbertCSR) supply their own contact topology. It must
	// return a CSR with Population nodes.
	CSRBuilder func(src *rng.Source) (*graph.CSR, error)
	// Virus selects the virus scenario.
	Virus virus.Config
	// Network holds delivery/read timing and the consent model.
	Network mms.Config
	// Responses are the mechanism factories to attach (empty = baseline).
	Responses []mms.ResponseFactory
	// Faults attaches an infrastructure fault schedule (MMSC outage
	// windows, delivery retries, phone churn). Nil models the paper's
	// always-healthy infrastructure.
	Faults *faults.Schedule
	// InitialInfected seeds this many distinct susceptible phones
	// (paper: 1).
	InitialInfected int
	// Horizon is the simulated duration.
	Horizon time.Duration
	// PostRun, if non-nil, is invoked after the horizon with the live
	// shard set, for measurements beyond Result's standard fields (e.g.
	// cross-referencing mechanism state with infection state). It may be
	// called concurrently from parallel replications and must synchronize
	// any shared state it touches.
	PostRun func(set *mms.ShardSet)

	// Shards partitions the population into that many contiguous id
	// ranges, each advanced on its own event queue (mms.ShardSet). 0 or 1
	// is the paper's model: one shard, run inline. More than one is a
	// scale mode for 10^5+ phones, with batched cross-shard MMS delivery
	// and globally merged response state at window barriers (DESIGN.md
	// §15): trajectories match the one-shard model in distribution but not
	// byte-for-byte. Fault injection, which would need cross-shard
	// synchronization inside a window, is rejected by Validate with more
	// than one shard.
	Shards int
	// ShardWindow is the barrier interval: the cross-shard exchange period
	// and the cancellation-check granularity. Zero defaults to
	// Horizon/128.
	ShardWindow time.Duration
	// ShardWorkers caps the shard worker pool (GOMAXPROCS when <= 0).
	// Pure scheduling: the trajectory is identical for any worker count,
	// so experiment fingerprints exclude it.
	ShardWorkers int
}

// Default returns the paper's standard configuration for the given virus:
// 1,000 phones, 800 susceptible, power-law contact lists with mean size 80,
// one seed infection, and the calibrated network timing defaults.
func Default(v virus.Config) Config {
	return Config{
		Population:          1000,
		SusceptibleFraction: 0.8,
		Graph:               graph.DefaultPowerLawConfig(),
		Virus:               v,
		Network:             mms.DefaultConfig(),
		InitialInfected:     1,
		Horizon:             horizonFor(v),
	}
}

// horizonFor returns the paper's observation window per scenario: 18 days
// for Viruses 1 and 4, 10 days for Virus 2, 24 hours for Virus 3.
func horizonFor(v virus.Config) time.Duration {
	switch v.Name {
	case "Virus 2":
		return 240 * time.Hour
	case "Virus 3":
		return 24 * time.Hour
	default:
		return 432 * time.Hour
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Population < 2:
		return errors.New("core: population must be at least 2")
	case c.SusceptibleFraction <= 0 || c.SusceptibleFraction > 1:
		return fmt.Errorf("core: susceptible fraction %v outside (0,1]", c.SusceptibleFraction)
	case c.InitialInfected < 1:
		return errors.New("core: need at least one initial infection")
	case c.Horizon <= 0:
		return errors.New("core: horizon must be positive")
	}
	if float64(c.InitialInfected) > c.SusceptibleFraction*float64(c.Population) {
		return fmt.Errorf("core: %d seeds exceed the susceptible population", c.InitialInfected)
	}
	if c.GraphBuilder != nil {
		return errors.New("core: GraphBuilder is retired; set CSRBuilder instead")
	}
	switch {
	case c.Shards < 0:
		return fmt.Errorf("core: shard count %d is negative", c.Shards)
	case c.ShardWindow < 0:
		return errors.New("core: shard window must be non-negative")
	case c.Shards > c.Population:
		return fmt.Errorf("core: %d shards exceed the population", c.Shards)
	case c.Shards > 1 && (c.Faults != nil || c.Network.Faults.Active()):
		return errors.New("core: fault injection requires a one-shard run")
	}
	if err := c.Virus.Validate(); err != nil {
		return err
	}
	return c.Faults.Validate()
}

// Result is the outcome of a single replication.
type Result struct {
	// Infections is the infected-count step curve over [0, Horizon].
	Infections *curve.Curve
	// FinalInfected is the infected count at the horizon. Phones never
	// recover in this model, so it is also the peak.
	FinalInfected int
	// Network are the network counters at the horizon.
	Network mms.Metrics
	// Engine are the virus-engine counters at the horizon.
	Engine virus.Stats
	// GatewayDetectedAt is when the provider detected the virus (valid
	// when GatewayDetected).
	GatewayDetectedAt time.Duration
	// GatewayDetected reports whether detection occurred.
	GatewayDetected bool
}

// RunOnce executes one replication of the scenario with the given seed.
func RunOnce(cfg Config, seed uint64) (*Result, error) {
	return RunOnceContext(context.Background(), cfg, seed)
}

// RunOnceContext executes one replication, honouring ctx: the simulation
// horizon is executed in windows with a cancellation check between them,
// so a timeout or cancel aborts a replication mid-run rather than after
// it. Windowing never changes a one-shard run's event order, so results
// are bit-identical to RunOnce when the context stays live.
func RunOnceContext(ctx context.Context, cfg Config, seed uint64) (*Result, error) {
	return runOnce(ctx, cfg, seed, nil)
}

// runOnce is RunOnceContext taking the topology from topos (nil builds
// it).
func runOnce(ctx context.Context, cfg Config, seed uint64, topos *TopologyTable) (*Result, error) {
	sr, err := newShardedRun(cfg, seed, topos)
	if err != nil {
		return nil, err
	}
	return sr.Run(ctx)
}

// ShardedRun is a constructed-but-not-yet-executed replication: topology,
// SoA population, per-shard networks and event queues, per-shard virus
// engines and the response mechanisms, with the initial infections seeded.
// Construction is split from execution so scale benchmarks can meter them
// separately (steady-state bytes per phone comes from the construction
// phase; events per second from the execution phase). RunOnceContext is
// NewShardedRun followed by Run.
type ShardedRun struct {
	cfg     Config
	set     *mms.ShardSet
	engines []*virus.Engine
}

// NewShardedRun builds the replication state for (cfg, seed). Streams 1–6
// of the seed's root feed graph, vulnerability mask, network, virus,
// responses and seed choice, and per-phone stream names are global phone
// ids throughout, so every shard layout derives the same per-phone
// generators.
func NewShardedRun(cfg Config, seed uint64) (*ShardedRun, error) {
	return newShardedRun(cfg, seed, nil)
}

// newShardedRun is NewShardedRun taking the topology from topos (nil
// builds it).
func newShardedRun(cfg Config, seed uint64, topos *TopologyTable) (*ShardedRun, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	graphSrc := root.Stream(1)
	maskSrc := root.Stream(2)
	netSrc := root.Stream(3)
	virusSrc := root.Stream(4)
	respSrcBase := root.Stream(5)
	seedSrc := root.Stream(6)

	topo, err := topos.topology(cfg, seed, graphSrc)
	if err != nil {
		return nil, err
	}
	vulnerable := vulnerabilityMask(cfg, maskSrc)

	shards := max(cfg.Shards, 1)
	window := cfg.ShardWindow
	if window <= 0 {
		window = cfg.Horizon / defaultWindows
		if window <= 0 {
			window = cfg.Horizon
		}
	}
	netCfg := cfg.Network
	if cfg.Faults != nil {
		netCfg.Faults = cfg.Faults
	}
	set, err := mms.NewShardSet(topo, vulnerable, netCfg, shards, window, netSrc)
	if err != nil {
		return nil, err
	}

	sr := &ShardedRun{cfg: cfg, set: set}
	for _, net := range set.Shards() {
		// All shards share virusSrc: engines derive per-phone sender streams
		// by global id, so the union across shards is exactly the one-shard
		// engine's stream set.
		eng, err := virus.Attach(cfg.Virus, net, virusSrc)
		if err != nil {
			return nil, err
		}
		sr.engines = append(sr.engines, eng)
	}

	for i, f := range cfg.Responses {
		if f == nil {
			return nil, fmt.Errorf("core: response factory %d is nil", i)
		}
		r := f()
		// Mechanism i draws from sub-stream i of stream 5 for any shard
		// count, so mechanisms that draw in canonical phone order (the
		// immunizer's deployment offsets) see the same sequence on every
		// layout.
		if err := set.AttachResponse(r, respSrcBase.Stream(uint64(i))); err != nil {
			return nil, fmt.Errorf("core: attach %s: %w", r.Name(), err)
		}
	}

	if err := seedInfections(cfg, set, vulnerable, seedSrc); err != nil {
		return nil, err
	}
	return sr, nil
}

// defaultWindows is how many windows the horizon splits into when
// ShardWindow is zero.
const defaultWindows = 128

// ShardSet exposes the underlying shard set (topology, populations, merged
// counters). Benchmarks use it to read EventsFired and memory footprints.
func (sr *ShardedRun) ShardSet() *mms.ShardSet { return sr.set }

// Horizon returns the configured horizon (convenience for benchmarks that
// drive Run through a context with their own deadline).
func (sr *ShardedRun) Horizon() time.Duration { return sr.cfg.Horizon }

// Run advances every shard to the horizon (ShardWorkers wide), invokes the
// PostRun hook, and assembles the replication Result: the infection curve
// from the population's infection times, summed engine and network
// counters, and the global gateway detection time.
func (sr *ShardedRun) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := sr.set.Run(ctx, sr.cfg.Horizon, sr.cfg.ShardWorkers); err != nil {
		return nil, err
	}
	if sr.cfg.PostRun != nil {
		sr.cfg.PostRun(sr.set)
	}
	events := sr.set.InfectionEvents()
	infections := curve.NewWithCapacity(0, len(events))
	for i, ev := range events {
		// Events are sorted by time, so appends are monotone.
		if err := infections.Append(ev.At, float64(i+1)); err != nil {
			return nil, fmt.Errorf("core: infection curve at %v: %w", ev.At, err)
		}
	}
	var stats virus.Stats
	for _, eng := range sr.engines {
		s := eng.Stats()
		stats.Activations += s.Activations
		stats.MessagesAttempted += s.MessagesAttempted
		stats.MessagesSent += s.MessagesSent
		stats.SendsDeferred += s.SendsDeferred
		stats.SendsBlocked += s.SendsBlocked
		stats.QuotaPauses += s.QuotaPauses
	}
	res := &Result{
		Infections:    infections,
		FinalInfected: sr.set.InfectedCount(),
		Network:       sr.set.Metrics(),
		Engine:        stats,
	}
	res.GatewayDetectedAt, res.GatewayDetected = sr.set.Detected()
	return res, nil
}

// buildTopology produces the CSR contact graph from src: the configured
// CSRBuilder, or else the power-law generator over cfg.Graph.
func buildTopology(cfg Config, src *rng.Source) (*graph.CSR, error) {
	var topo *graph.CSR
	var err error
	if cfg.CSRBuilder != nil {
		topo, err = cfg.CSRBuilder(src)
	} else {
		gc := cfg.Graph
		gc.N = cfg.Population
		topo, err = graph.PowerLaw(gc, src)
	}
	if err != nil {
		return nil, err
	}
	if topo.N() != cfg.Population {
		return nil, fmt.Errorf("core: topology has %d nodes, config wants %d", topo.N(), cfg.Population)
	}
	return topo, nil
}

// vulnerabilityMask randomly designates the susceptible share, mirroring the
// paper's random choice of 800 of 1,000 phones.
func vulnerabilityMask(cfg Config, src *rng.Source) []bool {
	n := cfg.Population
	k := int(cfg.SusceptibleFraction*float64(n) + 0.5)
	mask := make([]bool, n)
	perm := src.Perm(n)
	for i := 0; i < k && i < n; i++ {
		mask[perm[i]] = true
	}
	return mask
}

// seedInfections infects cfg.InitialInfected distinct vulnerable phones,
// chosen by shuffling the candidates with src, each on its owner shard.
func seedInfections(cfg Config, set *mms.ShardSet, vulnerable []bool, src *rng.Source) error {
	candidates := make([]mms.PhoneID, 0, len(vulnerable))
	for i, v := range vulnerable {
		if v {
			candidates = append(candidates, mms.PhoneID(i))
		}
	}
	src.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	for i := 0; i < cfg.InitialInfected; i++ {
		if err := set.SeedInfection(candidates[i]); err != nil {
			return err
		}
	}
	return nil
}

// RunSet is the aggregate of several replications of one scenario.
type RunSet struct {
	// Config echoes the scenario.
	Config Config
	// Results holds the outcomes of the replications that completed, in
	// seed order. When every replication succeeds this is one entry per
	// replication; under the salvage policy it holds the survivors.
	Results []*Result
	// Seeds holds the seed of each entry in Results.
	Seeds []uint64
	// Band is the cross-replication infection curve sampled on a uniform
	// grid over [0, Horizon], aggregated from Results. Nil when no
	// replication survived.
	Band *curve.Band
	// Failed records the replications that errored, panicked, or were
	// cancelled. Empty on a fully successful run; populated (with a nil
	// Run error) when the salvage quorum was met.
	Failed []*ReplicationError
}

// FinalMean returns the mean final infected count across replications.
func (rs *RunSet) FinalMean() float64 {
	if len(rs.Results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs.Results {
		sum += float64(r.FinalInfected)
	}
	return sum / float64(len(rs.Results))
}

// Options tunes a replicated run.
type Options struct {
	// Replications is the number of independent runs (default 10).
	Replications int
	// BaseSeed derives per-replication seeds (default 1).
	BaseSeed uint64
	// GridPoints is the number of sampling intervals for the aggregated
	// band (default 200).
	GridPoints int
	// Parallelism caps concurrent replications (default GOMAXPROCS).
	Parallelism int
	// MinReplications is the salvage quorum: when positive and at least
	// this many replications succeed, Run aggregates the survivors and
	// records the failures in RunSet.Failed instead of returning an
	// error. Zero demands that every replication succeed.
	MinReplications int
}

// WithDefaults returns the options with every unset field replaced by its
// documented default. SubmitSeries applies it, so every replicated run
// (RunContext and experiment.RunSweep alike) derives the same seeds and
// replication counts from the same Options; code that enumerates a
// sweep's units without running them (experiment.SweepUnits) applies it
// too. A zero BaseSeed is "unset" and runs as seed 1, which is why the
// CLIs reject -seed 0 rather than print a seed that did not run.
func (o Options) WithDefaults() Options {
	if o.Replications <= 0 {
		o.Replications = 10
	}
	if o.BaseSeed == 0 {
		o.BaseSeed = 1
	}
	if o.GridPoints <= 0 {
		o.GridPoints = 200
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// ReplicationError describes one replication that failed to complete: an
// ordinary error, a recovered panic (Stack non-empty), or a cancellation.
// It carries the seed so the failure can be reproduced in isolation with
// RunOnce(cfg, e.Seed).
type ReplicationError struct {
	// Replication is the replication's index within the run.
	Replication int
	// Seed is the replication's RNG seed.
	Seed uint64
	// Err is the underlying failure.
	Err error
	// Stack is the goroutine stack captured when the replication
	// panicked; empty for ordinary errors.
	Stack []byte
}

// Error implements error.
func (e *ReplicationError) Error() string {
	if len(e.Stack) > 0 {
		return fmt.Sprintf("core: replication %d (seed %#x) panicked: %v", e.Replication, e.Seed, e.Err)
	}
	return fmt.Sprintf("core: replication %d (seed %#x): %v", e.Replication, e.Seed, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ReplicationError) Unwrap() error { return e.Err }

// seedStride spreads replication seeds so neighboring replications do not
// share splitmix trajectories (verified by TestReplicationSeedStride).
const seedStride = 0x9e3779b97f4a7c15

// ReplicationSeed derives the seed of replication i from the base seed.
// It is the single seed-derivation rule: SubmitSeries seeds every
// replication with it, and code that addresses a replication without
// running it (a store key, a distributed work unit) must use it too.
func ReplicationSeed(base uint64, i int) uint64 {
	return base + uint64(i)*seedStride
}

// Run executes opts.Replications independent replications of cfg in
// parallel and aggregates their infection curves. It is RunContext with a
// background context.
func Run(cfg Config, opts Options) (*RunSet, error) {
	return RunContext(context.Background(), cfg, opts)
}

// RunContext executes the replications under ctx. Each replication is
// crash-isolated: a panic is recovered into a *ReplicationError carrying
// the seed and stack instead of taking the process down. All failures are
// collected (errors.Join) rather than reported first-error-only, and a
// RunSet with the surviving results accompanies any error, so completed
// work is never discarded. When opts.MinReplications is positive and at
// least that many replications succeed, the failures are recorded in
// RunSet.Failed and the run is reported as a success (salvage policy).
// It is one series on a pool of its own, opts.Parallelism wide.
func RunContext(ctx context.Context, cfg Config, opts Options) (*RunSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := pool.New(opts.Parallelism)
	defer p.Close()
	return SubmitSeries(p, ctx, cfg, opts, RunReplication).Wait()
}

// RunReplication executes one crash-isolated replication: a panic inside
// the simulation is recovered into a *ReplicationError carrying the seed
// and stack. The replication index i is reporting metadata only — the
// outcome is fully determined by (cfg, seed), which is what makes results
// content-addressable for caching.
func RunReplication(ctx context.Context, cfg Config, i int, seed uint64) (*Result, *ReplicationError) {
	return runReplication(ctx, cfg, i, seed, nil)
}

// runReplication is RunReplication taking the topology from topos (nil
// builds it).
func runReplication(ctx context.Context, cfg Config, i int, seed uint64, topos *TopologyTable) (res *Result, repErr *ReplicationError) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			repErr = &ReplicationError{
				Replication: i,
				Seed:        seed,
				Err:         fmt.Errorf("panic: %v", r),
				Stack:       debug.Stack(),
			}
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, &ReplicationError{Replication: i, Seed: seed,
			Err: fmt.Errorf("cancelled before start: %w", err)}
	}
	r, err := runOnce(ctx, cfg, seed, topos)
	if err != nil {
		return nil, &ReplicationError{Replication: i, Seed: seed, Err: err}
	}
	return r, nil
}
