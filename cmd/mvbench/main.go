// Command mvbench runs the repository's pinned performance suite and emits
// a machine-readable BENCH_<label>.json, making simulator speed a checked
// artifact rather than a claim (DESIGN.md §9).
//
// The suite covers the layers of the hot path: raw DES kernel
// throughput (schedule/fire batches, self-perpetuating chains,
// schedule+cancel round trips), one full paper figure at reduced
// replications, and the persistent store's result codec (whose encoded
// size doubles as a framing-drift sentinel). Each entry records ns/op,
// allocs/op, bytes/op, and — where meaningful — events/sec; figure runs
// also record their headline mean-final-infections as a built-in
// correctness sanity, which is deterministic for the pinned seeds.
//
// Usage:
//
//	mvbench [-label L] [-out DIR] [-count N] [-run SUBSTR] [-tier T[,T]]
//	mvbench -compare OLD.json [-threshold F] [-sanity F] ...
//
// With -compare, mvbench runs the suite, diffs it against OLD.json, and
// exits 1 if any benchmark regressed past the thresholds (ns/op or
// bytes/phone by more than -threshold as a fraction, any allocs/op
// increase, or any headline drift beyond -sanity relative tolerance).
// Exit code 2 reports a usage or execution error.
//
// The suite is tiered (DESIGN.md §9): "quick" entries are cheap enough for
// every PR run, "scale" holds the 100k-phone population benchmark that PR
// CI runs as its own gate step, and "nightly" holds the 10^6-phone entry
// that only the nightly workflow executes. -tier selects tiers (comma
// separated); the default runs quick+scale, so a plain `make bench` stays
// minutes, not hours. In -compare mode only the selected entries gate:
// baseline entries outside the tier/run selection are skipped, not
// reported missing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/virus"
	"repro/internal/workq"
)

// parseTiers turns the -tier flag into a selection set; empty string means
// every tier.
func parseTiers(s string) (map[string]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]bool)
	for _, t := range strings.Split(s, ",") {
		t = strings.TrimSpace(t)
		switch t {
		case tierQuick, tierScale, tierNightly:
			out[t] = true
		case "":
		default:
			return nil, fmt.Errorf("unknown tier %q (want quick, scale, or nightly)", t)
		}
	}
	return out, nil
}

// schemaVersion gates comparisons across incompatible report layouts.
const schemaVersion = 1

// eventsMetric is the ReportMetric unit a benchmark uses to declare how
// many simulation events one op executes; every other metric is a headline
// correctness figure.
const eventsMetric = "events/op"

// bytesPerPhoneMetric is the ReportMetric unit the population benchmarks
// use for steady-state memory per phone. It is a capacity figure, not a
// correctness headline: in -compare mode it gates like ns/op (fractional
// -threshold), since heap measurement jitters far beyond the -sanity
// tolerance reserved for deterministic correctness metrics.
const bytesPerPhoneMetric = "bytes/phone"

// Suite tiers (DESIGN.md §9).
const (
	tierQuick   = "quick"   // every PR run, sub-minute entries
	tierScale   = "scale"   // PR gate step: 10^5-phone population
	tierNightly = "nightly" // nightly only: 10^6-phone population
)

// Result is one benchmark's measurement.
type Result struct {
	Name          string             `json:"name"`
	NsPerOp       float64            `json:"ns_per_op"`
	AllocsPerOp   int64              `json:"allocs_per_op"`
	BytesPerOp    int64              `json:"bytes_per_op"`
	EventsPerOp   float64            `json:"events_per_op,omitempty"`
	EventsPerSec  float64            `json:"events_per_sec,omitempty"`
	BytesPerPhone float64            `json:"bytes_per_phone,omitempty"`
	Headline      map[string]float64 `json:"headline,omitempty"`
}

// Report is the BENCH_<label>.json document.
type Report struct {
	Schema     int      `json:"schema"`
	Label      string   `json:"label"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Count      int      `json:"count"`
	Results    []Result `json:"results"`
}

// spec is one pinned suite entry.
type spec struct {
	name string
	tier string
	run  func(b *testing.B)
}

// suite returns the pinned benchmark suite. Names, seeds, and workload
// sizes are part of the comparison contract: changing them invalidates
// committed baselines.
func suite() []spec {
	return []spec{
		{"des/schedule-fire-1k", tierQuick, benchScheduleFire},
		{"des/self-perpetuating-chain", tierQuick, benchChain},
		{"des/schedule-cancel", tierQuick, benchScheduleCancel},
		{"figure1/reduced", tierQuick, benchFigure1},
		{"figures/sweep-reduced", tierQuick, benchFiguresSweep},
		{"figures/sweep-distributed", tierQuick, benchDistributedSweep},
		{"store/codec-roundtrip", tierQuick, benchStoreCodec},
		{"mvlint/self", tierQuick, benchMvlintSelf},
		{"mms/shard-exchange", tierQuick, benchShardExchange},
		{"core/population-100k", tierScale, benchPopulation100k},
		{"core/population-100k-response", tierScale, benchPopulation100kResponse},
		{"core/population-1m", tierNightly, benchPopulation1M},
		{"core/population-1m-response", tierNightly, benchPopulation1MResponse},
	}
}

// populationConfig is the pinned scale scenario: a streamed Barabási–Albert
// topology (m=4, mean degree ~8), Virus 3 (the fast random-dialing flood),
// 1% of the population seeded, sharded conservative-window execution. The
// seeds, shard counts, windows, and horizons are part of the baseline
// contract.
func populationConfig(phones, shards int, horizon time.Duration) core.Config {
	cfg := core.Default(virus.Virus3())
	cfg.Population = phones
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.BarabasiAlbertCSR(phones, 4, src)
	}
	cfg.InitialInfected = phones / 100
	cfg.Horizon = horizon
	cfg.Shards = shards
	cfg.ShardWindow = 5 * time.Minute
	return cfg
}

// benchPopulation measures the million-phone path end to end: per op, build
// the streamed CSR topology, SoA population, shard networks, and engines
// for (cfg, seed 1), then run to the horizon. Steady-state bytes/phone is
// metered once, outside the timer, as the live-heap delta across an
// isolated construction (two forced GCs bracket it so the figure is the
// retained footprint, not allocator churn); events/op comes from the merged
// shard queues; the final infected count is a deterministic headline sanity.
func benchPopulation(b *testing.B, cfg core.Config) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	probe, err := core.NewShardedRun(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerPhone := float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Population)
	runtime.KeepAlive(probe)
	probe = nil

	var events uint64
	final := -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := core.NewShardedRun(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sr.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		events += sr.ShardSet().EventsFired()
		final = res.FinalInfected
	}
	b.ReportMetric(float64(events)/float64(b.N), eventsMetric)
	b.ReportMetric(bytesPerPhone, bytesPerPhoneMetric)
	b.ReportMetric(float64(final), "final-infected-seed1")
}

func benchPopulation100k(b *testing.B) {
	benchPopulation(b, populationConfig(100_000, 8, 2*time.Hour))
}

func benchPopulation1M(b *testing.B) {
	benchPopulation(b, populationConfig(1_000_000, 32, time.Hour))
}

// populationResponseConfig layers the paper's strongest mechanism
// combination — gateway scan, patch immunization, blacklisting — onto the
// pinned scale scenario, exercising the barrier-merged response path
// (shared activation times, canonical patch waves, per-shard blacklists)
// at population scale. Parameters sit inside the short bench horizon so
// every mechanism activates; the final-infected headline doubles as a
// determinism pin on the whole sharded response protocol.
func populationResponseConfig(phones, shards int, horizon time.Duration) core.Config {
	cfg := populationConfig(phones, shards, horizon)
	cfg.Responses = []mms.ResponseFactory{
		response.NewScan(30 * time.Minute),
		response.NewImmunizer(30*time.Minute, time.Hour),
		response.NewBlacklist(10),
	}
	return cfg
}

func benchPopulation100kResponse(b *testing.B) {
	benchPopulation(b, populationResponseConfig(100_000, 8, 2*time.Hour))
}

func benchPopulation1MResponse(b *testing.B) {
	benchPopulation(b, populationResponseConfig(1_000_000, 32, time.Hour))
}

// benchShardExchange isolates the cross-shard hot path: per op, 64 virus
// messages are sent from shard 0 to a fixed set of shard 1 phones, then one
// conservative window runs — outbox drain, canonical stable sort, and
// owner-shard injection — via the serial RunWindow driver (no pool, so the
// allocation count is scheduling-independent). The small target set
// saturates the read-cap elision during warmup, leaving a deterministic
// steady state whose allocs/op must be exactly zero: the flat SoA outbox
// and the reused merge batch are the point of this entry, and the baseline
// pins them (any regrowth fails the allocs gate, which allows no slack at
// a zero baseline).
func benchShardExchange(b *testing.B) {
	b.ReportAllocs()
	const phones = 4096
	const copiesPerOp = 64
	const exchangeTargets = 16
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		b.Fatal(err)
	}
	vulnerable := make([]bool, phones) // reads never infect: pure delivery load
	cfg := mms.DefaultConfig()
	cfg.AllowDuplicateTrials = true // dedup map inserts are not the path under test
	ss, err := mms.NewShardSet(topo, vulnerable, cfg, 2, time.Minute, root.Stream(3))
	if err != nil {
		b.Fatal(err)
	}
	sender := ss.Shards()[0]
	window := ss.Window()
	barrier := time.Duration(0)
	targets := make([]mms.Target, 1)
	op := func() {
		for k := 0; k < copiesPerOp; k++ {
			from := mms.PhoneID(k % (phones / 2))
			targets[0] = mms.ValidTarget(mms.PhoneID(phones/2 + k%exchangeTargets))
			if _, err := sender.Send(from, targets); err != nil {
				b.Fatal(err)
			}
		}
		barrier += window
		ss.RunWindow(barrier, barrier+window)
	}
	// Warm the outbox and merge buffers and saturate the target read caps,
	// so the timed region is the steady state.
	for i := 0; i < 2*exchangeTargets*readCapWarmup/copiesPerOp; i++ {
		op()
	}
	before := ss.Metrics().MessagesSent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(ss.Metrics().MessagesSent-before)/float64(b.N), "messages/op")
}

// readCapWarmup mirrors mms's per-phone read-event cap (not exported; the
// warmup only needs an upper bound).
const readCapWarmup = 64

// benchMvlintSelf measures one full lint run over the module — parse,
// type-check, call graph, and every rule — so analyzer speed is a pinned
// artifact like simulator speed (a sweep gates every CI run). The headline
// pins the repository's clean verdict: any nonzero finding count is a
// correctness failure, not a performance number. Like mvlint itself, this
// entry must run from inside the module.
func benchMvlintSelf(b *testing.B) {
	b.ReportAllocs()
	findings := -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.NewLoader().LoadPatterns([]string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		findings = len(analysis.Run(pkgs, nil, nil))
	}
	b.ReportMetric(float64(findings), "findings")
}

// benchScheduleFire measures kernel throughput on batches of 1,000 events
// against one long-lived simulation, so the steady state exercises the
// arena free list rather than allocator growth.
func benchScheduleFire(b *testing.B) {
	b.ReportAllocs()
	noop := func(*des.Simulation) {}
	const batch = 1000
	sim := des.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			if _, err := sim.ScheduleAfter(time.Duration(j)*time.Millisecond, noop); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
	}
	b.ReportMetric(batch, eventsMetric)
}

// benchChain measures the dominant simulator pattern: each event schedules
// its successor.
func benchChain(b *testing.B) {
	b.ReportAllocs()
	sim := des.New()
	count := 0
	var tick des.Handler
	tick = func(s *des.Simulation) {
		count++
		if count < b.N {
			if _, err := s.ScheduleAfter(time.Millisecond, tick); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	if _, err := sim.ScheduleAfter(0, tick); err != nil {
		b.Fatal(err)
	}
	sim.Run()
	b.ReportMetric(1, eventsMetric)
}

// benchScheduleCancel measures schedule+cancel round trips through the
// generation-counted handle path.
func benchScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	sim := des.New()
	noop := func(*des.Simulation) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := sim.ScheduleAfter(time.Hour, noop)
		if err != nil {
			b.Fatal(err)
		}
		if !sim.Cancel(h) {
			b.Fatal("cancel of pending event failed")
		}
	}
}

// benchFigure1 runs the paper's Figure 1 baselines at reduced replications
// on a single worker, so the measurement is comparable across machines
// with different core counts. Its headline mean-final-infections double as
// an end-to-end correctness sanity.
func benchFigure1(b *testing.B) {
	b.ReportAllocs()
	opts := core.Options{Replications: 2, GridPoints: 50, BaseSeed: 1, Parallelism: 1}
	var fr *experiment.FigureResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fr, err = experiment.RunFigure(experiment.Figure1(experiment.FullScale), opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fr.Series[0].FinalMean, "final-infected-first-series")
	b.ReportMetric(fr.Series[len(fr.Series)-1].FinalMean, "final-infected-last-series")
}

// benchFiguresSweep runs the whole study matrix at reduced scale through
// the sweep scheduler — one shared worker pool, fresh replication cache per
// op. Wall clock measures cross-study scheduling; the cache-hit headlines
// pin the dedup contract (hits/misses count unique vs duplicate
// (config, seed) units, so they are deterministic for any worker count),
// and the final-infection headlines pin end-to-end correctness.
func benchFiguresSweep(b *testing.B) {
	b.ReportAllocs()
	figs := experiment.AllStudies(experiment.Scale{Factor: 10})
	opts := core.Options{Replications: 2, GridPoints: 50, BaseSeed: 1}
	var sr *experiment.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sr, err = experiment.RunSweep(nil, figs, opts,
			experiment.SweepOptions{Cache: experiment.NewReplicationCache()})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := sr.Cache
	b.ReportMetric(float64(st.Hits), "cache-hits")
	b.ReportMetric(100*st.HitRate(), "cache-hit-rate-pct")
	first := sr.Figures[0].Series
	last := sr.Figures[len(sr.Figures)-1].Series
	b.ReportMetric(first[0].FinalMean, "final-infected-first-study")
	b.ReportMetric(last[len(last)-1].FinalMean, "final-infected-last-study")
}

// benchDistributedSweep measures the distributed path end to end: per op,
// a coordinator writes the work-queue manifest for Figure 2 at reduced
// scale, a worker drains it into a fresh store, two late workers verify
// an already-drained queue costs one scan, and the sweep assembles from
// store reads alone. Workers run sequentially so the allocation count is
// scheduling-independent and the gate stays exact (concurrency is the
// race and chaos tests' job). Headlines pin the protocol's determinism:
// every unit acked, zero retries, zero recomputation at assembly, and
// the same final-infection means as any other execution mode.
func benchDistributedSweep(b *testing.B) {
	b.ReportAllocs()
	figs, err := experiment.SelectStudies("figure2", experiment.Scale{Factor: 10})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Replications: 2, GridPoints: 50, BaseSeed: 1}
	spec := workq.Spec{Figure: "figure2", Reps: 2, BaseSeed: 1, Scale: 10, Grid: 50}
	units, _ := experiment.SweepUnits(figs, opts)
	var prog workq.Progress
	var sr *experiment.SweepResult
	var assemblyMisses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storeDir, err := os.MkdirTemp("", "mvbench-dist-")
		if err != nil {
			b.Fatal(err)
		}
		coord, err := workq.OpenQueue(experiment.QueueDir(storeDir), workq.QueueOptions{WorkerID: "coord"})
		if err != nil {
			b.Fatal(err)
		}
		if err := coord.WriteManifest(spec, units); err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 3; w++ {
			_, err := experiment.RunSweepWorker(context.Background(), experiment.WorkerConfig{
				StoreDir: storeDir,
				ID:       fmt.Sprintf("bench-%d", w),
				Poll:     time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		prog = coord.Census(units)
		ps, err := experiment.OpenPersistentSweep(storeDir, false)
		if err != nil {
			b.Fatal(err)
		}
		sr, err = experiment.RunSweep(context.Background(), figs, opts, experiment.SweepOptions{Jobs: 2, Cache: ps.Cache})
		if err != nil {
			b.Fatal(err)
		}
		assemblyMisses = sr.Cache.Misses
		if err := ps.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(storeDir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prog.Acked), "units-acked")
	b.ReportMetric(float64(prog.Retried), "units-retried")
	b.ReportMetric(float64(assemblyMisses), "assembly-misses")
	series := sr.Figures[0].Series
	b.ReportMetric(series[len(series)-1].FinalMean, "final-infections")
}

// benchStoreCodec measures one persistent-store encode+decode round trip of
// a real replication result (Virus 3, 120 phones, 12 h horizon, seed 42).
// The encoded size is a headline: the framing and payload layout are
// deterministic, so any codec change shows up as byte drift here before it
// invalidates on-disk caches in the field.
func benchStoreCodec(b *testing.B) {
	b.ReportAllocs()
	cfg := core.Default(virus.Virus3())
	cfg.Population = 120
	cfg.Graph.MeanDegree = 12
	cfg.Horizon = 12 * time.Hour
	res, err := core.RunOnce(cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := store.EncodeResult(res)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
		if _, err := store.DecodeResult(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "encoded-bytes")
}

// toResult converts a raw BenchmarkResult, splitting the events metric off
// from headline correctness metrics.
func toResult(name string, r testing.BenchmarkResult) Result {
	out := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	for unit, v := range r.Extra {
		switch unit {
		case eventsMetric:
			out.EventsPerOp = v
		case bytesPerPhoneMetric:
			out.BytesPerPhone = v
		default:
			if out.Headline == nil {
				out.Headline = make(map[string]float64)
			}
			out.Headline[unit] = v
		}
	}
	if out.EventsPerOp > 0 && out.NsPerOp > 0 {
		out.EventsPerSec = out.EventsPerOp * 1e9 / out.NsPerOp
	}
	return out
}

// better merges a repeated measurement into best, keeping the fastest
// ns/op and the smallest allocation figures (repeats only ever add noise
// upward: GC pauses, scheduler preemption, cache pollution).
func better(best, next Result) Result {
	if next.NsPerOp < best.NsPerOp {
		best.NsPerOp = next.NsPerOp
		best.EventsPerSec = next.EventsPerSec
	}
	if next.AllocsPerOp < best.AllocsPerOp {
		best.AllocsPerOp = next.AllocsPerOp
	}
	if next.BytesPerOp < best.BytesPerOp {
		best.BytesPerOp = next.BytesPerOp
	}
	if next.BytesPerPhone > 0 && (best.BytesPerPhone == 0 || next.BytesPerPhone < best.BytesPerPhone) {
		best.BytesPerPhone = next.BytesPerPhone
	}
	return best
}

// selectSpecs applies the -tier and -run filters to the suite. tiers nil or
// empty means every tier.
func selectSpecs(tiers map[string]bool, filter string) []spec {
	var out []spec
	for _, sp := range suite() {
		if len(tiers) > 0 && !tiers[sp.tier] {
			continue
		}
		if filter != "" && !strings.Contains(sp.name, filter) {
			continue
		}
		out = append(out, sp)
	}
	return out
}

// collect runs every selected suite entry count times and keeps the best
// measurement of each.
func collect(specs []spec, count int) ([]Result, error) {
	var out []Result
	for _, sp := range specs {
		var best Result
		for i := 0; i < count; i++ {
			r := testing.Benchmark(sp.run)
			if r.N == 0 {
				return nil, fmt.Errorf("benchmark %s failed to run", sp.name)
			}
			res := toResult(sp.name, r)
			if i == 0 {
				best = res
				continue
			}
			best = better(best, res)
		}
		out = append(out, best)
		fmt.Printf("%-32s %14.1f ns/op %10d allocs/op %12s%s\n",
			best.Name, best.NsPerOp, best.AllocsPerOp, eventsPerSecString(best),
			bytesPerPhoneString(best))
	}
	if len(out) == 0 {
		return nil, errors.New("no suite entry matches the -tier/-run selection")
	}
	return out, nil
}

// bytesPerPhoneString renders the per-phone footprint column, blank for
// entries without one.
func bytesPerPhoneString(r Result) string {
	if r.BytesPerPhone <= 0 {
		return ""
	}
	return fmt.Sprintf(" %.1f B/phone", r.BytesPerPhone)
}

// eventsPerSecString renders the events/sec column, blank when the entry
// has no event count.
func eventsPerSecString(r Result) string {
	if r.EventsPerSec <= 0 {
		return ""
	}
	return fmt.Sprintf("%.0f ev/s", r.EventsPerSec)
}

// compare diffs fresh results against a committed baseline. It returns
// human-readable regression descriptions; an empty slice means the gate
// passes. threshold is the allowed fractional growth of ns/op and
// bytes/phone; sanity is the allowed relative drift of headline correctness
// metrics. selected, when non-nil, restricts the gate to baseline entries
// in the set (the -tier/-run selection): entries outside it are someone
// else's tier, not missing benchmarks.
func compare(old, fresh Report, threshold, sanity float64, selected map[string]bool) []string {
	var problems []string
	freshByName := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		freshByName[r.Name] = r
	}
	for _, o := range old.Results {
		if selected != nil && !selected[o.Name] {
			continue
		}
		n, ok := freshByName[o.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: present in baseline but not in fresh run", o.Name))
			continue
		}
		if limit := o.NsPerOp * (1 + threshold); n.NsPerOp > limit {
			problems = append(problems, fmt.Sprintf("%s: ns/op regressed %.1f -> %.1f (>%+.0f%%)",
				o.Name, o.NsPerOp, n.NsPerOp, threshold*100))
		}
		if o.BytesPerPhone > 0 {
			if limit := o.BytesPerPhone * (1 + threshold); n.BytesPerPhone > limit {
				problems = append(problems, fmt.Sprintf("%s: bytes/phone regressed %.1f -> %.1f (>%+.0f%%)",
					o.Name, o.BytesPerPhone, n.BytesPerPhone, threshold*100))
			}
		}
		// Allocation counts are exact for the zero-alloc kernel entries but
		// jitter by a handful of runtime-internal allocations on multi-
		// million-alloc figure runs, so allow 0.1% slack (still zero slack
		// when the baseline is zero).
		if n.AllocsPerOp > o.AllocsPerOp+o.AllocsPerOp/1000 {
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed %d -> %d (allowed slack 0.1%%)",
				o.Name, o.AllocsPerOp, n.AllocsPerOp))
		}
		keys := make([]string, 0, len(o.Headline))
		for k := range o.Headline {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ov := o.Headline[k]
			nv, ok := n.Headline[k]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: headline %q missing from fresh run", o.Name, k))
				continue
			}
			scale := ov
			if scale < 0 {
				scale = -scale
			}
			if scale < 1 {
				scale = 1
			}
			diff := nv - ov
			if diff < 0 {
				diff = -diff
			}
			if diff > sanity*scale {
				problems = append(problems, fmt.Sprintf("%s: headline %q drifted %v -> %v (correctness sanity, tol %g)",
					o.Name, k, ov, nv, sanity))
			}
		}
	}
	return problems
}

// loadReport reads and validates a baseline file.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parse %s: %w", path, err)
	}
	if rep.Schema != schemaVersion {
		return rep, fmt.Errorf("%s has schema %d, this mvbench speaks %d", path, rep.Schema, schemaVersion)
	}
	return rep, nil
}

// writeReport emits BENCH_<label>.json into dir and returns the path.
func writeReport(rep Report, dir string) (string, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, "BENCH_"+rep.Label+".json")
	if err := store.WriteFileAtomic(store.OS, path, data); err != nil {
		return "", err
	}
	return path, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes the driver and returns the process exit code: 0 success,
// 1 regression gate failure, 2 usage or execution error.
func run(args []string) int {
	fs := flag.NewFlagSet("mvbench", flag.ContinueOnError)
	var (
		label     = fs.String("label", "local", "label L for the emitted BENCH_L.json")
		outDir    = fs.String("out", ".", "directory for the emitted report")
		count     = fs.Int("count", 1, "repetitions per benchmark; best-of-N is kept")
		filter    = fs.String("run", "", "only run suite entries whose name contains this substring")
		tier      = fs.String("tier", "quick,scale", "comma-separated suite tiers to run (quick, scale, nightly; empty = all)")
		comparePK = fs.String("compare", "", "baseline BENCH_*.json to gate against")
		threshold = fs.Float64("threshold", 0.15, "allowed fractional ns/op (and bytes/phone) regression in -compare mode")
		sanity    = fs.Float64("sanity", 1e-6, "allowed relative drift of headline correctness metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *count < 1 || *threshold < 0 || *sanity < 0 {
		fmt.Fprintln(os.Stderr, "mvbench: -count must be >= 1 and thresholds non-negative")
		return 2
	}
	tiers, err := parseTiers(*tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		return 2
	}

	specs := selectSpecs(tiers, *filter)
	results, err := collect(specs, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		return 2
	}
	rep := Report{
		Schema:     schemaVersion,
		Label:      *label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Count:      *count,
		Results:    results,
	}
	path, err := writeReport(rep, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		return 2
	}
	fmt.Println("wrote", path)

	if *comparePK == "" {
		return 0
	}
	base, err := loadReport(*comparePK)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		return 2
	}
	// Gate only what this invocation measured: with an active tier or -run
	// selection, baseline entries outside it belong to other CI steps.
	var selected map[string]bool
	if len(tiers) > 0 || *filter != "" {
		selected = make(map[string]bool, len(specs))
		for _, sp := range specs {
			selected[sp.name] = true
		}
	}
	problems := compare(base, rep, *threshold, *sanity, selected)
	if len(problems) == 0 {
		fmt.Printf("benchmark gate passed against %s (threshold %+.0f%% ns/op, 0 allocs/op)\n",
			*comparePK, *threshold*100)
		return 0
	}
	fmt.Fprintf(os.Stderr, "mvbench: %d regression(s) against %s:\n", len(problems), *comparePK)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "  "+p)
	}
	return 1
}
