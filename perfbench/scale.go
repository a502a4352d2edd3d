package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// scaleSpec is one 10^6-phone scenario: the pinned scale configuration of
// cmd/mvbench at a 2 h horizon, with or without the response stack, and
// the seed-1 headline it must reproduce.
type scaleSpec struct {
	phones, shards int
	responses      bool
	pinFinal       int
	pinEvents      uint64
}

var (
	scaleOutbreak = scaleSpec{phones: 1_000_000, shards: 32, pinFinal: 103_799, pinEvents: 3_966_260}
	scaleResponse = scaleSpec{phones: 1_000_000, shards: 32, responses: true, pinFinal: 15_564, pinEvents: 1_004_506}
)

// scaleWorkers is the shard pool width: the host's two CPUs.
const scaleWorkers = 2

func scaleConfig(sp scaleSpec) core.Config {
	cfg := core.Default(virus.Virus3())
	cfg.Population = sp.phones
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.BarabasiAlbertCSR(sp.phones, 4, src)
	}
	cfg.InitialInfected = sp.phones / 100
	cfg.Horizon = 2 * time.Hour
	cfg.Shards = sp.shards
	cfg.ShardWindow = 5 * time.Minute
	cfg.ShardWorkers = scaleWorkers
	if sp.responses {
		cfg.Responses = []mms.ResponseFactory{
			response.NewScan(30 * time.Minute),
			response.NewImmunizer(30*time.Minute, time.Hour),
			response.NewBlacklist(10),
		}
	}
	return cfg
}

// scaleCounts is everything exact a sharded run reports; two runs of one
// (config, seed) must agree on all of it, traced or not.
type scaleCounts struct {
	final      int
	events     uint64
	net        mms.Metrics
	detected   bool
	detectedAt time.Duration
}

// scaleIter is one measured iteration: construction, then execution.
type scaleIter struct {
	setup, run time.Duration
	bytes      float64 // retained heap per phone across construction
	counts     scaleCounts
	engine     virus.Stats // untraced iterations only
	monotone   bool
}

// untracedScale builds and runs one replication exactly as
// core.RunOnceContext does for a sharded config, timing the two phases.
// The forced collections around construction are outside both timers.
func untracedScale(cfg core.Config, seed uint64) (scaleIter, error) {
	var it scaleIter
	before := heapAfterGC()
	t0 := clock.System()
	sr, err := core.NewShardedRun(cfg, seed)
	if err != nil {
		return it, err
	}
	it.setup = clock.System().Sub(t0)
	it.bytes = (float64(heapAfterGC()) - float64(before)) / float64(cfg.Population)
	t1 := clock.System()
	res, err := sr.Run(context.Background())
	if err != nil {
		return it, err
	}
	it.run = clock.System().Sub(t1)
	it.counts = scaleCounts{
		final:      res.FinalInfected,
		events:     sr.ShardSet().EventsFired(),
		net:        res.Network,
		detected:   res.GatewayDetected,
		detectedAt: res.GatewayDetectedAt,
	}
	it.engine = res.Engine
	it.monotone = res.Infections.Monotone() && int(res.Infections.Final()) == res.FinalInfected
	return it, nil
}

// shardTrace holds the exact counts the traced driver collects alongside
// its spans.
type shardTrace struct {
	deltas   [][]uint64 // per window, per shard: events fired
	injected int64      // Σ over barriers of the change in pending events
}

// tracedScale builds the same replication with a timed topology builder
// and runs it on the benchmark's own driver, which follows ShardSet.Run's
// window protocol: each window, scaleWorkers goroutines advance the shards
// to the barrier (each Sim().RunUntil call is a span), then RunWindow
// performs the serial barrier step (a span).
func tracedScale(rec *recorder, cfg core.Config, seed uint64) (scaleIter, shardTrace, error) {
	var (
		it scaleIter
		st shardTrace
	)
	iter := rec.begin("iteration", -1)
	defer rec.end(iter)
	setup := rec.begin("setup", iter)
	inner := cfg.CSRBuilder
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		s := rec.begin("graph.build", setup)
		defer rec.end(s)
		return inner(src)
	}
	t0 := clock.System()
	sr, err := core.NewShardedRun(cfg, seed)
	if err != nil {
		return it, st, err
	}
	it.setup = clock.System().Sub(t0)
	rec.end(setup)

	runSpan := rec.begin("run", iter)
	t1 := clock.System()
	set := sr.ShardSet()
	st = driveShards(rec, runSpan, set, cfg.Horizon, scaleWorkers)
	// The same result assembly sr.Run performs after its window loop.
	events := set.InfectionEvents()
	_ = set.BuildInfectionTree()
	it.run = clock.System().Sub(t1)
	rec.end(runSpan)

	it.counts = scaleCounts{final: set.InfectedCount(), events: set.EventsFired(), net: set.Metrics()}
	it.counts.detectedAt, it.counts.detected = set.Detected()
	it.monotone = len(events) == it.counts.final
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			it.monotone = false
		}
	}
	return it, st, nil
}

func driveShards(rec *recorder, parent int, set *mms.ShardSet, horizon time.Duration, workers int) shardTrace {
	var st shardTrace
	nets := set.Shards()
	window := set.Window()
	fired := make([]uint64, len(nets))
	pending := func() int64 {
		var p int64
		for _, n := range nets {
			p += int64(n.Sim().Pending())
		}
		return p
	}
	for t := window; ; t += window {
		if t > horizon {
			t = horizon
		}
		phase := rec.begin("shard.phase", parent)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := rec.begin("shard.worker", phase)
				for s := int(next.Add(1)) - 1; s < len(nets); s = int(next.Add(1)) - 1 {
					c := rec.begin("shard.compute", ws)
					nets[s].Sim().RunUntil(t)
					rec.end(c)
				}
				rec.end(ws)
			}()
		}
		wg.Wait()
		rec.end(phase)

		d := make([]uint64, len(nets))
		for s, n := range nets {
			d[s] = n.Sim().Fired() - fired[s]
		}
		st.deltas = append(st.deltas, d)
		nextBarrier := t + window
		if nextBarrier > horizon {
			nextBarrier = horizon
		}
		before := pending()
		b := rec.begin("shard.barrier", parent)
		set.RunWindow(t, nextBarrier)
		rec.end(b)
		st.injected += pending() - before
		for s, n := range nets {
			fired[s] = n.Sim().Fired()
		}
		if t >= horizon {
			return st
		}
	}
}

func runScale(p params, sp scaleSpec) (*outcome, error) {
	cfg := scaleConfig(sp)
	out := &outcome{metrics: map[string]float64{}}
	var (
		ref      *scaleCounts
		untraced []scaleIter
		traced   []scaleIter
		trace    shardTrace
		rec      *recorder
		gcTraced gcStats
	)
	check := func(it scaleIter, label string) {
		out.attempted++
		problems := scaleProblems(sp, cfg, p.seed, it, ref)
		for _, pr := range problems {
			out.fail(0, "%s iteration %d: %s", label, out.attempted, pr)
		}
		if len(problems) > 0 {
			out.failed++
		}
		if ref == nil {
			c := it.counts
			ref = &c
		}
	}
	start := clock.System()
	for len(untraced) == 0 || budgetLeft(start, p.budget) {
		it, err := untracedScale(cfg, p.seed)
		if err != nil {
			return nil, err
		}
		check(it, "untraced")
		untraced = append(untraced, it)
		if p.traced {
			rec = newRecorder()
			heapAfterGC() // start from the same clean heap as an untraced iteration
			g0 := readGC()
			tit, st, err := tracedScale(rec, cfg, p.seed)
			if err != nil {
				return nil, err
			}
			g1 := readGC()
			gcTraced = gcStats{cycles: gcTraced.cycles + g1.cycles - g0.cycles, pause: gcTraced.pause + g1.pause - g0.pause}
			check(tit, "traced")
			traced = append(traced, tit)
			trace = st
		}
	}

	if !p.traced {
		var walls, setups, runs []time.Duration
		var bytes []float64
		for _, it := range untraced {
			walls = append(walls, it.setup+it.run)
			setups = append(setups, it.setup)
			runs = append(runs, it.run)
			bytes = append(bytes, it.bytes)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		phoneHours := float64(cfg.Population) * cfg.Horizon.Hours()
		out.metrics["wall_s"] = medianDur(walls).Seconds()
		out.metrics["setup_s"] = medianDur(setups).Seconds()
		out.metrics["phone_hours_per_s"] = phoneHours / medianDur(runs).Seconds()
		out.metrics["peak_rss_mb"] = rss
		out.metrics["bytes_per_phone"] = median(bytes)
		return out, nil
	}

	// Per-layer metrics come from the last traced iteration's spans; the
	// counts are identical in every iteration (checked above).
	spans := rec.snapshot()
	out.spans = spans
	last := traced[len(traced)-1]
	var untracedRuns, tracedRuns []time.Duration
	for _, it := range untraced {
		untracedRuns = append(untracedRuns, it.run)
	}
	for _, it := range traced {
		tracedRuns = append(tracedRuns, it.run)
	}
	busy := sumDur(spans, "shard.worker")
	barrier := sumDur(spans, "shard.barrier")
	barrierMs := durationsMs(spans, "shard.barrier")
	m := out.metrics
	m["graph.build_s"] = sumDur(spans, "graph.build").Seconds()
	m["graph.powerlaw_s"] = 0 // the streamed BA builder bypasses the power-law generator
	m["mms.construct_s"] = sumSelf(spans, "setup").Seconds()
	m["des.events"] = float64(last.counts.events)
	m["des.events_per_busy_s"] = ratio(float64(last.counts.events), busy.Seconds())
	m["mms.shard.compute_s"] = sumDur(spans, "shard.compute").Seconds()
	m["mms.shard.busy_s"] = busy.Seconds()
	m["mms.shard.wait_s"] = phaseIdle(spans, "shard.phase", "shard.worker", scaleWorkers).Seconds()
	m["mms.shard.imbalance"] = imbalance(trace.deltas)
	m["mms.shard.barrier_s"] = barrier.Seconds()
	m["mms.shard.barrier_p50_ms"] = quantile(barrierMs, 0.5)
	m["mms.shard.barrier_max_ms"] = quantile(barrierMs, 1)
	m["mms.shard.injected"] = float64(trace.injected)
	m["mms.shard.serial_frac"] = serialFrac(spans)
	addNetCounts(m, last.counts.net, untraced[0].engine)
	runsMs := make([]float64, len(traced))
	for i, it := range traced {
		runsMs[i] = float64(it.setup+it.run) / float64(time.Millisecond)
	}
	m["core.replication_p50_ms"] = quantile(runsMs, 0.5)
	m["core.replication_p90_ms"] = quantile(runsMs, 0.9)
	m["experiment.cache_hits"] = 0 // no replication cache on the sharded path
	m["experiment.cache_misses"] = 0
	m["pool.idle_s"] = poolIdle(spans, scaleWorkers, "shard.worker").Seconds()
	m["store.overhead_s"] = 0 // no store on the sharded path
	m["store.puts"] = 0
	m["store.journal_records"] = 0
	m["store.bytes"] = 0
	m["go.gc_cycles"] = float64(gcTraced.cycles) / float64(len(traced))
	m["go.gc_pause_s"] = gcTraced.pause.Seconds() / float64(len(traced))
	m["trace.overhead_s"] = (medianDur(tracedRuns) - medianDur(untracedRuns)).Seconds()
	return out, nil
}

// addNetCounts fills the exact model counters shared by every workload.
func addNetCounts(m map[string]float64, net mms.Metrics, eng virus.Stats) {
	m["mms.deliveries"] = float64(net.Deliveries)
	m["mms.reads"] = float64(net.Reads)
	m["mms.infections"] = float64(net.Infections)
	m["mms.gateway_dropped"] = float64(net.GatewayDropped)
	m["mms.blocked"] = float64(net.MessagesBlocked)
	m["mms.patched"] = float64(net.Patched)
	m["mms.read_yield"] = ratio(float64(net.Infections), float64(net.Reads))
	m["virus.attempted"] = float64(eng.MessagesAttempted)
	m["virus.sent"] = float64(eng.MessagesSent)
	m["virus.send_yield"] = ratio(float64(eng.MessagesSent), float64(eng.MessagesAttempted))
}

// scaleProblems lists every output check the iteration fails: the seed-1
// headline, the model invariants, and agreement with the first iteration
// of the run (ref, nil for the first).
func scaleProblems(sp scaleSpec, cfg core.Config, seed uint64, it scaleIter, ref *scaleCounts) []string {
	var probs []string
	c := it.counts
	if seed == 1 && sp.pinEvents != 0 && (c.final != sp.pinFinal || c.events != sp.pinEvents) {
		probs = append(probs, fmt.Sprintf("seed-1 headline: final %d events %d, want final %d events %d",
			c.final, c.events, sp.pinFinal, sp.pinEvents))
	}
	if susceptible := int(cfg.SusceptibleFraction*float64(cfg.Population) + 0.5); c.final > susceptible {
		probs = append(probs, fmt.Sprintf("final %d exceeds the %d susceptible phones", c.final, susceptible))
	}
	if c.final < cfg.InitialInfected || c.events == 0 {
		probs = append(probs, fmt.Sprintf("degenerate run: final %d, events %d", c.final, c.events))
	}
	if !it.monotone {
		probs = append(probs, "infection curve is not monotone or disagrees with the final count")
	}
	if ref != nil && !reflect.DeepEqual(c, *ref) {
		probs = append(probs, fmt.Sprintf("counts differ from the run's first iteration: %+v vs %+v", c, *ref))
	}
	return probs
}
