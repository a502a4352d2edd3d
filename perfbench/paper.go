package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/virus"
	"repro/internal/workq"
)

// paperJobs is the sweep pool width: the host's two CPUs.
const paperJobs = 2

// setupBatch is how many setups one setup_s sample times together. A
// single setup (study matrix plus opening a cold store) takes about 0.1 ms,
// far too short to time alone on a noisy host; the batch keeps every timed
// span above 100 ms.
const setupBatch = 2000

func paperOptions(seed uint64) core.Options {
	return core.Options{Replications: 10, BaseSeed: seed, GridPoints: 200}
}

// paperSweep is one sweep's state and outcome.
type paperSweep struct {
	figs  []experiment.Figure
	sr    *experiment.SweepResult // dropped once checked
	cache experiment.CacheStats
	csv   map[string][]byte
	setup time.Duration // per setup: the batch's time over setupBatch
	run   time.Duration // RunSweep
	write time.Duration // the seven CSVs, written atomically
	store *store.DiskStore
}

// opened is one setup's product: the study matrix and a cache over a cold
// store tier.
type opened struct {
	figs  []experiment.Figure
	cache *experiment.ReplicationCache
	store *store.DiskStore
	ts    *tracedStore // traced sweeps only
	close func() error
}

// openSweep does what mvfigures -storedir does before its sweep: build the
// study matrix and open a persistent store. A traced sweep assembles the
// same pieces by hand so the cache sits on a span-recording store. With
// resume the store's (empty) journal is replayed instead of recreated.
func openSweep(dir string, rec *recorder, resume bool) (opened, error) {
	o := opened{figs: experiment.AllFigures(experiment.Scale{Factor: 1})}
	if rec == nil {
		ps, err := experiment.OpenPersistentSweep(dir, resume)
		if err != nil {
			return o, err
		}
		o.cache, o.store, o.close = ps.Cache, ps.Store, ps.Close
		return o, nil
	}
	s, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		return o, err
	}
	j, _, err := store.OpenJournal(nil, s.JournalPath(), resume)
	if err != nil {
		return o, err
	}
	o.ts = &tracedStore{DiskStore: s, rec: rec, parent: -1}
	o.cache, o.store, o.close = experiment.NewPersistentCache(o.ts, j), s, j.Close
	return o, nil
}

// openBatch times setupBatch setups of one store directory, each closing
// its predecessor, and keeps the last for the sweep. The first setup
// creates the store; the others reopen it, still cold because nothing is computed between the opens, and
// replay its empty journal rather than recreate it. Creating and deleting
// hundreds of directories and journals would time the host's file-creation
// latency, which moved fivefold within minutes on the 2-vCPU host the
// benchmark was designed on, instead of the setup code.
func openBatch(dir string, rec *recorder) (opened, time.Duration, error) {
	var o opened
	t0 := clock.System()
	for i := 0; i < setupBatch; i++ {
		if i > 0 {
			if err := o.close(); err != nil {
				return o, 0, err
			}
		}
		var err error
		if o, err = openSweep(dir, rec, i > 0); err != nil {
			return o, 0, err
		}
	}
	return o, clock.System().Sub(t0) / setupBatch, nil
}

// runPaperSweep performs one Figures 1-7 sweep in a fresh directory: the
// setup batch, the sweep on a cold store tier, and the CSV writes. With a
// recorder it is the traced sweep, its spans under parent.
func runPaperSweep(dir string, seed uint64, rec *recorder, parent int) (*paperSweep, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	begin := func(name string) int {
		if rec == nil {
			return -1
		}
		return rec.begin(name, parent)
	}
	end := func(i int) {
		if rec != nil {
			rec.end(i)
		}
	}
	ps := &paperSweep{csv: map[string][]byte{}}
	sp := begin("setup")
	o, per, err := openBatch(filepath.Join(dir, "store"), rec)
	if err != nil {
		return nil, err
	}
	end(sp)
	ps.figs, ps.setup, ps.store = o.figs, per, o.store

	rp := begin("run")
	if o.ts != nil {
		o.ts.parent = rp
	}
	t0 := clock.System()
	// A partial failure still returns the sweep; checkPaperSweep reports
	// its figure errors.
	ps.sr, err = experiment.RunSweep(context.Background(), o.figs, paperOptions(seed),
		experiment.SweepOptions{Jobs: paperJobs, Cache: o.cache})
	ps.run = clock.System().Sub(t0)
	end(rp)
	if ps.sr == nil {
		return nil, err
	}
	ps.cache = ps.sr.Cache

	wp := begin("write")
	t1 := clock.System()
	outDir := filepath.Join(dir, "csv")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	for fi, fr := range ps.sr.Figures {
		if ps.sr.FigureErrs[fi] != nil {
			continue
		}
		var buf bytes.Buffer
		if err := fr.WriteCSV(&buf); err != nil {
			return nil, err
		}
		if err := store.WriteFileAtomic(store.OS, filepath.Join(outDir, fr.Figure.ID+".csv"), buf.Bytes()); err != nil {
			return nil, err
		}
		ps.csv[fr.Figure.ID] = buf.Bytes()
	}
	ps.write = clock.System().Sub(t1)
	end(wp)
	if err := o.close(); err != nil {
		return nil, err
	}
	return ps, nil
}

// tracedStore wraps the DiskStore the sweep's cache sits on, recording a
// span for every store call and a child span for every replication the
// store computes. parent is the sweep's run span.
type tracedStore struct {
	*store.DiskStore
	rec    *recorder
	parent int
}

func (t *tracedStore) Get(ctx context.Context, k store.Key) (*core.Result, bool, error) {
	s := t.rec.begin("store.get", t.parent)
	defer t.rec.end(s)
	return t.DiskStore.Get(ctx, k)
}

func (t *tracedStore) Put(ctx context.Context, k store.Key, res *core.Result) error {
	s := t.rec.begin("store.put", t.parent)
	defer t.rec.end(s)
	return t.DiskStore.Put(ctx, k, res)
}

func (t *tracedStore) GetOrCompute(ctx context.Context, k store.Key, compute func() (*core.Result, error)) (*core.Result, store.Origin, error) {
	s := t.rec.begin("store.get_or_compute", t.parent)
	defer t.rec.end(s)
	return t.DiskStore.GetOrCompute(ctx, k, func() (*core.Result, error) {
		c := t.rec.begin("core.replication", s)
		defer t.rec.end(c)
		return compute()
	})
}

// sweepFacts are the exact, schedule-independent facts of a sweep: its
// unit census (one unit per distinct (config, seed), the replications the
// cache computes), the replications requested, and the simulated
// phone-hours of the computed units.
type sweepFacts struct {
	units      []workq.Unit
	total      int
	phoneHours float64
}

func paperFacts(figs []experiment.Figure, opts core.Options) sweepFacts {
	units, _ := experiment.SweepUnits(figs, opts)
	f := sweepFacts{units: units}
	for _, fig := range figs {
		f.total += len(fig.Series) * opts.Replications
	}
	for _, u := range units {
		cfg := seriesConfig(figs, u)
		f.phoneHours += float64(cfg.Population) * cfg.Horizon.Hours()
	}
	return f
}

func seriesConfig(figs []experiment.Figure, u workq.Unit) core.Config {
	for _, fig := range figs {
		if fig.ID == u.Fig {
			return fig.Series[u.Series].Config
		}
	}
	panic("perfbench: unit of unknown figure " + u.Fig)
}

// computedCounts sums the model counters of the units the sweep computed
// (each distinct (config, seed) once, as the cache runs them).
func computedCounts(ps *paperSweep, units []workq.Unit) (mms.Metrics, virus.Stats) {
	var net mms.Metrics
	var eng virus.Stats
	idx := map[string]int{}
	for i, fr := range ps.sr.Figures {
		idx[fr.Figure.ID] = i
	}
	for _, u := range units {
		fi, ok := idx[u.Fig]
		if !ok || ps.sr.FigureErrs[fi] != nil {
			continue
		}
		rs := ps.sr.Figures[fi].Series[u.Series].RunSet
		if u.Rep >= len(rs.Results) {
			continue
		}
		r := rs.Results[u.Rep]
		addCounters(&net, &r.Network)
		addCounters(&eng, &r.Engine)
	}
	return net, eng
}

// addCounters adds every uint64 field of src into dst, both pointers to
// the same struct type of counters (mms.Metrics, virus.Stats).
func addCounters(dst, src any) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetUint(dv.Field(i).Uint() + sv.Field(i).Uint())
	}
}

// replicationState is the model state one unsharded replication builds
// before its first event, rebuilt from outside through the public
// constructors in core.RunOnceContext's stream order.
type replicationState struct {
	topo *graph.CSR
	net  *mms.Network
	eng  *virus.Engine
}

// rebuild constructs a unit's replication state, timing the power-law
// generator, the CSR conversion and the model construction separately.
func rebuild(cfg core.Config, seed uint64) (st replicationState, powerlaw, csr, construct time.Duration, err error) {
	root := rng.New(seed)
	gc := cfg.Graph
	gc.N = cfg.Population
	t0 := clock.System()
	g, err := graph.PowerLaw(gc, root.Stream(1))
	if err != nil {
		return st, 0, 0, 0, err
	}
	t1 := clock.System()
	st.topo = graph.FromGraph(g)
	t2 := clock.System()
	n := cfg.Population
	mask := make([]bool, n)
	perm := root.Stream(2).Perm(n)
	for i := 0; i < int(cfg.SusceptibleFraction*float64(n)+0.5) && i < n; i++ {
		mask[perm[i]] = true
	}
	netCfg := cfg.Network
	if cfg.Faults != nil {
		netCfg.Faults = cfg.Faults
	}
	if st.net, err = mms.NewCSR(st.topo, mask, netCfg, des.New(), root.Stream(3)); err != nil {
		return st, 0, 0, 0, err
	}
	if st.eng, err = virus.Attach(cfg.Virus, st.net, root.Stream(4)); err != nil {
		return st, 0, 0, 0, err
	}
	respBase := root.Stream(5)
	for i, f := range cfg.Responses {
		if err := st.net.AttachResponse(f(), respBase.Stream(uint64(i))); err != nil {
			return st, 0, 0, 0, err
		}
	}
	t3 := clock.System()
	return st, t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), nil
}

// paperBytesPerPhone is the retained heap of one paper-scale replication's
// state (topology, population, engine, responses) per phone.
func paperBytesPerPhone(figs []experiment.Figure, u workq.Unit) (float64, error) {
	cfg := seriesConfig(figs, u)
	before := heapAfterGC()
	st, _, _, _, err := rebuild(cfg, u.Seed)
	if err != nil {
		return 0, err
	}
	after := heapAfterGC()
	runtime.KeepAlive(st)
	return (float64(after) - float64(before)) / float64(cfg.Population), nil
}

// paperRef is what every sweep of one run must reproduce: the first
// sweep's CSVs and computed-unit counters.
type paperRef struct {
	csv map[string][]byte
	net mms.Metrics
	eng virus.Stats
}

// checkPaperSweep records every failed output check of one sweep. It
// returns the sweep's counters so the first sweep can become the
// reference.
func checkPaperSweep(out *outcome, p params, ps *paperSweep, facts sweepFacts, ref *paperRef, label string) paperRef {
	opts := paperOptions(p.seed)
	out.attempted += facts.total
	net, eng := computedCounts(ps, facts.units)
	got := paperRef{csv: ps.csv, net: net, eng: eng}
	for fi, fr := range ps.sr.Figures {
		fig := ps.figs[fi]
		reps := len(fig.Series) * opts.Replications
		if err := ps.sr.FigureErrs[fi]; err != nil {
			out.fail(reps, "%s %s: %v", label, fig.ID, err)
			continue
		}
		bad := 0
		for _, s := range fr.Series {
			bad += len(s.RunSet.Failed)
			susceptible := int(s.RunSet.Config.SusceptibleFraction*float64(s.RunSet.Config.Population) + 0.5)
			for _, r := range s.RunSet.Results {
				if !r.Infections.Monotone() || r.FinalInfected > susceptible || int(r.Infections.Final()) != r.FinalInfected {
					bad++
				}
			}
		}
		if bad > 0 {
			out.fail(bad, "%s %s: %d replications failed or broke an invariant (monotone curve, final <= susceptible)", label, fig.ID, bad)
		}
		csv := ps.csv[fig.ID]
		if p.seed == 1 {
			want, err := os.ReadFile(filepath.Join(p.root, "results", fig.ID+".csv"))
			if err != nil || !bytes.Equal(csv, want) {
				out.fail(reps-bad, "%s %s: CSV is not byte-identical to results/%s.csv (read error: %v)", label, fig.ID, fig.ID, err)
				continue
			}
		}
		if ref != nil && !bytes.Equal(csv, ref.csv[fig.ID]) {
			out.fail(reps-bad, "%s %s: CSV differs from the run's first sweep", label, fig.ID)
		}
	}
	st := ps.sr.Cache
	if st.Misses != uint64(len(facts.units)) || st.Hits != uint64(facts.total-len(facts.units)) ||
		st.DiskHits != 0 || st.PeerHits != 0 || st.Uncacheable != 0 || st.StoreErrors != 0 || st.Quarantined != 0 {
		out.fail(0, "%s: cache counters %+v, want %d misses and %d hits on a cold store", label, st, len(facts.units), facts.total-len(facts.units))
	}
	if ref != nil && (got.net != ref.net || got.eng != ref.eng) {
		out.fail(0, "%s: computed-unit counters differ from the run's first sweep", label)
	}
	return got
}

func runPaperFigures(p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	facts := paperFacts(experiment.AllFigures(experiment.Scale{Factor: 1}), paperOptions(p.seed))
	var (
		ref               *paperRef
		untraced, traced  []*paperSweep
		rec               *recorder
		gcTraced          gcStats
		powerlaw, csr, mc time.Duration
	)
	start := clock.System()
	for n := 0; len(untraced) == 0 || budgetLeft(start, p.budget); n++ {
		ps, err := runPaperSweep(filepath.Join(p.workDir, fmt.Sprintf("sweep-%d", n)), p.seed, nil, -1)
		if err != nil {
			return nil, err
		}
		r := checkPaperSweep(out, p, ps, facts, ref, fmt.Sprintf("untraced sweep %d", n))
		if ref == nil {
			ref = &r
		}
		ps.sr = nil // keep the heap, and so peak RSS, independent of the sweep count
		untraced = append(untraced, ps)
		if !p.traced {
			continue
		}
		rec = newRecorder()
		g0 := readGC()
		root := rec.begin("sweep", -1)
		ts, err := runPaperSweep(filepath.Join(p.workDir, fmt.Sprintf("traced-%d", n)), p.seed, rec, root)
		if err != nil {
			return nil, err
		}
		rec.end(root)
		g1 := readGC()
		gcTraced.cycles += g1.cycles - g0.cycles
		gcTraced.pause += g1.pause - g0.pause
		checkPaperSweep(out, p, ts, facts, ref, fmt.Sprintf("traced sweep %d", n))
		ts.sr = nil
		traced = append(traced, ts)
	}

	if !p.traced {
		var walls, setups, runs []time.Duration
		for _, ps := range untraced {
			walls = append(walls, ps.setup+ps.run+ps.write)
			setups = append(setups, ps.setup)
			runs = append(runs, ps.run)
		}
		bpp, err := paperBytesPerPhone(untraced[0].figs, facts.units[0])
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.metrics["wall_s"] = medianDur(walls).Seconds()
		out.metrics["setup_s"] = medianDur(setups).Seconds()
		out.metrics["phone_hours_per_s"] = facts.phoneHours / medianDur(runs).Seconds()
		out.metrics["peak_rss_mb"] = rss
		out.metrics["bytes_per_phone"] = bpp
		return out, nil
	}

	// The topology and model construction happen inside each replication,
	// out of the benchmark's reach; re-run them on every computed unit's
	// config and seed, outside the sweep, to attribute their cost.
	figs := untraced[0].figs
	for _, u := range facts.units {
		cfg := seriesConfig(figs, u)
		if cfg.GraphBuilder != nil || cfg.CSRBuilder != nil {
			continue
		}
		_, pl, c, m, err := rebuild(cfg, u.Seed)
		if err != nil {
			return nil, err
		}
		powerlaw, csr, mc = powerlaw+pl, csr+c, mc+m
	}

	spans := rec.snapshot()
	out.spans = spans
	last := traced[len(traced)-1]
	var untracedRuns, tracedRuns []time.Duration
	for _, ps := range untraced {
		untracedRuns = append(untracedRuns, ps.run)
	}
	for _, ps := range traced {
		tracedRuns = append(tracedRuns, ps.run)
	}
	m := out.metrics
	m["graph.build_s"] = (powerlaw + csr).Seconds()
	m["graph.powerlaw_s"] = powerlaw.Seconds()
	m["mms.construct_s"] = mc.Seconds()
	// core.Result carries no event count, and the unsharded path has no
	// shards: these layers are bypassed.
	for _, name := range []string{
		"des.events", "des.events_per_busy_s", "mms.shard.compute_s", "mms.shard.busy_s",
		"mms.shard.wait_s", "mms.shard.imbalance", "mms.shard.barrier_s", "mms.shard.barrier_p50_ms",
		"mms.shard.barrier_max_ms", "mms.shard.injected", "mms.shard.serial_frac",
	} {
		m[name] = 0
	}
	addNetCounts(m, ref.net, ref.eng)
	repMs := durationsMs(spans, "core.replication")
	m["core.replication_p50_ms"] = quantile(repMs, 0.5)
	m["core.replication_p90_ms"] = quantile(repMs, 0.9)
	m["experiment.cache_hits"] = float64(last.cache.Hits)
	m["experiment.cache_misses"] = float64(last.cache.Misses)
	m["pool.idle_s"] = poolIdle(spans, paperJobs, "store.get_or_compute", "store.get", "store.put").Seconds()
	m["store.overhead_s"] = (sumSelf(spans, "store.get_or_compute") + sumDur(spans, "store.get") + sumDur(spans, "store.put")).Seconds()
	m["store.puts"] = float64(last.store.Stats().Puts)
	records, bytesOnDisk, err := storeFootprint(last.store)
	if err != nil {
		return nil, err
	}
	m["store.journal_records"] = float64(records)
	m["store.bytes"] = float64(bytesOnDisk)
	m["go.gc_cycles"] = float64(gcTraced.cycles) / float64(len(traced))
	m["go.gc_pause_s"] = gcTraced.pause.Seconds() / float64(len(traced))
	m["trace.overhead_s"] = (medianDur(tracedRuns) - medianDur(untracedRuns)).Seconds()
	return out, nil
}

// storeFootprint counts the journal's records and the bytes of every
// stored object.
func storeFootprint(st *store.DiskStore) (records int, size int64, err error) {
	data, err := os.ReadFile(st.JournalPath())
	if err != nil {
		return 0, 0, err
	}
	records = bytes.Count(data, []byte("\n"))
	err = filepath.WalkDir(filepath.Join(st.Dir(), "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	return records, size, err
}
