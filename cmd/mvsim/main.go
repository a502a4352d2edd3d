// Command mvsim runs one mobile-phone virus scenario — one of the paper's
// four viruses, optionally under response mechanisms — and prints the
// aggregated infection curve as CSV (and optionally a terminal chart).
//
// Usage:
//
//	mvsim -virus 3 -monitor 15m -hours 24 -reps 10
//	mvsim -virus 1 -scan 6h
//	mvsim -virus 2 -detector 0.95
//	mvsim -virus 4 -immunize 24h,6h -education 0.2 -chart
//	mvsim -virus 3 -blacklist 10
//
// Response flags compose: passing several attaches them all to the same
// run (the paper's future-work combination study).
//
// Fault-injection flags model unreliable infrastructure:
//
//	mvsim -virus 3 -scan 6h -outage 0s,6h          # gateway down for the first 6h
//	mvsim -virus 1 -loss 0.3 -retry 3,30s,10m,0.2  # retry lost copies with backoff
//	mvsim -virus 2 -churn 12h,20m                  # phones power-cycle (exp means)
//	mvsim -virus 3 -reps 20 -min-reps 15 -timeout 2m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/virus"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mvsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvsim", flag.ContinueOnError)
	var (
		virusNum   = fs.Int("virus", 1, "virus scenario (1-4)")
		hours      = fs.Float64("hours", 0, "simulation horizon in hours (0 = paper default per virus)")
		reps       = fs.Int("reps", 10, "replications")
		seed       = fs.Uint64("seed", 1, "base random seed")
		population = fs.Int("population", 1000, "number of phones")
		topology   = fs.String("topology", "powerlaw", "contact topology: powerlaw (paper) or ba (streamed Barabási–Albert, the 10^6-phone path)")
		baM        = fs.Int("ba-m", 4, "edges each new node attaches with (-topology ba)")
		shards     = fs.Int("shards", 1, "population shards, each on its own event queue (>1 enables the batched-delivery scale mode)")
		shardWin   = fs.Duration("shard-window", 0, "cross-shard exchange-barrier interval (0 = horizon/128)")
		grid       = fs.Int("grid", 100, "time-grid points")
		chart      = fs.Bool("chart", false, "render a terminal chart")
		scan       = fs.Duration("scan", 0, "gateway scan activation delay (e.g. 6h; 0 = off)")
		detector   = fs.Float64("detector", 0, "gateway detector accuracy in (0,1] (0 = off)")
		education  = fs.Float64("education", 0, "user-education eventual acceptance in (0,1) (0 = off)")
		immunize   = fs.String("immunize", "", "immunization as dev,deploy durations (e.g. 24h,6h)")
		monitor    = fs.Duration("monitor", 0, "monitoring forced wait (e.g. 15m; 0 = off)")
		blacklist  = fs.Int("blacklist", 0, "blacklist threshold in messages (0 = off)")
		tracePath  = fs.String("trace", "", "write a JSONL event trace of one replication to this file")
		loss       = fs.Float64("loss", 0, "carrier congestion loss probability per copy in [0,1)")
		outage     = fs.String("outage", "", "MMSC fault windows as start,dur[,capacity] pairs joined by ';' (e.g. 0s,6h or 2h,4h,0.25)")
		retry      = fs.String("retry", "", "delivery retry policy as attempts,base[,max[,jitter]] (e.g. 3,30s,10m,0.2)")
		churn      = fs.String("churn", "", "phone power cycling as up,down mean durations (e.g. 12h,20m)")
		drain      = fs.Duration("drain", 0, "mean exponential spread of the post-outage queue drain (0 = drain at once)")
		timeout    = fs.Duration("timeout", 0, "wall-clock run budget; salvage whatever finished (0 = none)")
		minReps    = fs.Int("min-reps", 0, "salvage quorum: accept the run if at least this many replications survive (0 = all must)")
		jobs       = fs.Int("jobs", runtime.GOMAXPROCS(0), "replications run concurrently")
		storeDir   = fs.String("storedir", "", "persist replication results to this directory (content-addressed store + sweep journal)")
		resume     = fs.Bool("resume", false, "resume a killed run: replay the store directory's journal and skip finished replications")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *resume && *storeDir == "" {
		return fmt.Errorf("-resume needs -storedir: the journal to resume lives in the store directory")
	}

	if *virusNum < 1 || *virusNum > 4 {
		return fmt.Errorf("virus %d outside 1-4", *virusNum)
	}
	if *jobs < 1 {
		return fmt.Errorf("-jobs must be >= 1, got %d", *jobs)
	}
	if *reps < 1 {
		return fmt.Errorf("reps %d must be at least 1", *reps)
	}
	if *grid < 1 {
		return fmt.Errorf("-grid must be >= 1, got %d", *grid)
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be >= 1: seed 0 means \"unset\" and would run as seed 1")
	}
	if *minReps < 0 || *minReps > *reps {
		return fmt.Errorf("min-reps %d outside [0,%d]: the salvage quorum cannot exceed -reps", *minReps, *reps)
	}
	if *timeout < 0 {
		return fmt.Errorf("timeout %v negative; use a wall-clock budget like -timeout 2m", *timeout)
	}
	if *loss < 0 || *loss >= 1 {
		return fmt.Errorf("loss %v outside [0,1): it is a per-copy drop probability", *loss)
	}
	if *detector != 0 && (*detector <= 0 || *detector > 1) {
		return fmt.Errorf("detector accuracy %v outside (0,1]: 1 means every inspected copy is caught; try -detector 0.95", *detector)
	}
	if *education != 0 && (*education <= 0 || *education >= 1) {
		return fmt.Errorf("education acceptance %v outside (0,1): it is the eventual patch-acceptance fraction; try -education 0.2", *education)
	}
	if *blacklist < 0 {
		return fmt.Errorf("blacklist threshold %d negative: it is a message count; try -blacklist 10", *blacklist)
	}
	if *scan < 0 {
		return fmt.Errorf("-scan %v negative: it is the delay before gateway scanning starts; try -scan 6h (0 = off)", *scan)
	}
	if *monitor < 0 {
		return fmt.Errorf("-monitor %v negative: it is the forced wait per message; try -monitor 15m (0 = off)", *monitor)
	}
	if err := checkHorizonShards(*hours, *shards); err != nil {
		return err
	}
	cfg := core.Default(virus.Scenarios()[*virusNum-1])
	cfg.Population = *population
	switch *topology {
	case "powerlaw":
	case "ba":
		if *baM < 1 {
			return fmt.Errorf("-ba-m %d must be >= 1", *baM)
		}
		n, m := cfg.Population, *baM
		cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
			return graph.BarabasiAlbertCSR(n, m, src)
		}
	default:
		return fmt.Errorf("unknown -topology %q (want powerlaw or ba)", *topology)
	}
	if *tracePath != "" && *shards > 1 {
		return fmt.Errorf("-trace needs a one-shard run: a many-shard run has no single event order to record (drop -shards)")
	}
	cfg.Shards = *shards
	cfg.ShardWindow = *shardWin
	cfg.ShardWorkers = *jobs
	cfg.Network.DeliveryLossProb = *loss
	if *hours > 0 {
		cfg.Horizon = time.Duration(*hours * float64(time.Hour))
	}
	sched, err := parseFaults(*outage, *retry, *churn, *drain)
	if err != nil {
		return err
	}
	if sched.Active() && *shards > 1 {
		return fmt.Errorf("fault injection (-outage, -retry, -churn) needs a one-shard run: outages are global MMSC state (drop -shards)")
	}
	cfg.Faults = sched

	var labels []string
	addResponse := func(label string, f mms.ResponseFactory) {
		cfg.Responses = append(cfg.Responses, f)
		labels = append(labels, label)
	}
	if *scan > 0 {
		addResponse(fmt.Sprintf("scan(%v)", *scan), response.NewScan(*scan))
	}
	if *detector > 0 {
		addResponse(fmt.Sprintf("detector(%.2f)", *detector),
			response.NewDetector(*detector, response.DefaultAnalysisDelay))
	}
	if *education > 0 {
		addResponse(fmt.Sprintf("education(%.2f)", *education), response.NewEducation(*education))
	}
	if *immunize != "" {
		dev, deploy, err := parseImmunize(*immunize)
		if err != nil {
			return err
		}
		addResponse(fmt.Sprintf("immunize(%v,%v)", dev, deploy), response.NewImmunizer(dev, deploy))
	}
	if *monitor > 0 {
		addResponse(fmt.Sprintf("monitor(%v)", *monitor), response.NewMonitor(*monitor))
	}
	if *blacklist > 0 {
		addResponse(fmt.Sprintf("blacklist(%d)", *blacklist), response.NewBlacklist(*blacklist))
	}

	label := cfg.Virus.Name
	if len(labels) > 0 {
		label += " + " + strings.Join(labels, " + ")
	}
	if sched.Active() {
		label += " + " + sched.String()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fig := experiment.Figure{
		ID:     "mvsim",
		Title:  label,
		XLabel: "Hours",
		YLabel: "Infection Count",
		Series: []experiment.Series{{Label: label, Config: cfg}},
	}
	var cache *experiment.ReplicationCache
	if *storeDir != "" {
		ps, err := experiment.OpenPersistentSweep(*storeDir, *resume)
		if err != nil {
			return err
		}
		defer func() { _ = ps.Close() }()
		cache = ps.Cache
		if *resume {
			fmt.Fprintf(os.Stderr, "resume: %d units already complete in %s\n", ps.Resumed, *storeDir)
		}
	}
	fr, err := experiment.RunFigureCached(ctx, fig, core.Options{
		Replications:    *reps,
		BaseSeed:        *seed,
		GridPoints:      *grid,
		MinReplications: *minReps,
		Parallelism:     *jobs,
	}, cache)
	if err != nil {
		return err
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(os.Stderr, "store: %d disk hits / %d misses, %d quarantined, %d I/O errors\n",
			st.DiskHits, st.Misses, st.Quarantined, st.StoreErrors)
	}
	for _, sr := range fr.Series {
		for _, fe := range sr.RunSet.Failed {
			fmt.Fprintln(os.Stderr, "mvsim: salvaged past failure:", fe)
		}
	}
	if *chart {
		rendered, err := fr.RenderASCII()
		if err != nil {
			return err
		}
		fmt.Println(rendered)
	}
	if err := fr.WriteCSV(os.Stdout); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, fr.Summary())
	if *tracePath != "" {
		if err := writeTrace(cfg, *seed, *tracePath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote event trace to %s\n", *tracePath)
	}
	return nil
}

// writeTrace re-runs one replication with a trace recorder attached and
// writes the event log as JSON Lines.
func writeTrace(cfg core.Config, seed uint64, path string) error {
	rec := trace.NewRecorder(1 << 20)
	traced := cfg
	traced.Responses = append(append([]mms.ResponseFactory(nil), cfg.Responses...),
		func() mms.Response { return rec })
	if _, err := core.RunOnce(traced, seed); err != nil {
		return err
	}
	if rec.Truncated() {
		fmt.Fprintln(os.Stderr, "trace truncated at 1M events")
	}
	af, err := store.CreateAtomic(store.OS, path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(af); err != nil {
		af.Abort()
		return err
	}
	return af.Commit()
}

// checkHorizonShards validates -hours and -shards: hours is 0 (the
// paper's horizon for the virus) or a positive horizon that fits a
// time.Duration, and shards is at least 1.
func checkHorizonShards(hours float64, shards int) error {
	if !(hours >= 0) || hours*float64(time.Hour) >= math.MaxInt64 {
		return fmt.Errorf("-hours %v outside [0, %.0f]: 0 runs the paper's horizon for the virus; try -hours 24",
			hours, math.MaxInt64/float64(time.Hour))
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d: 1 is the paper's one-queue model", shards)
	}
	return nil
}

func parseImmunize(s string) (dev, deploy time.Duration, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("immunize wants dev,deploy (e.g. 24h,6h), got %q", s)
	}
	dev, err = time.ParseDuration(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("immunize development time: %w", err)
	}
	deploy, err = time.ParseDuration(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("immunize deployment window: %w", err)
	}
	if dev <= 0 || deploy <= 0 {
		return 0, 0, fmt.Errorf("immunize durations must be positive, got dev=%v deploy=%v (e.g. 24h,6h)", dev, deploy)
	}
	return dev, deploy, nil
}

// parseFaults assembles a faults.Schedule from the fault-injection flags and
// validates it as a whole, so a bad combination fails before any replication
// starts rather than deep inside the run.
func parseFaults(outage, retry, churn string, drain time.Duration) (*faults.Schedule, error) {
	sched := &faults.Schedule{DrainSpread: drain}
	var err error
	if outage != "" {
		if sched.Outages, err = parseOutages(outage); err != nil {
			return nil, err
		}
	}
	if retry != "" {
		if sched.Retry, err = parseRetry(retry); err != nil {
			return nil, err
		}
	}
	if churn != "" {
		if sched.Churn, err = parseChurn(churn); err != nil {
			return nil, err
		}
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	if !sched.Active() {
		// A nil schedule keeps fault-free configs on the exact seed path.
		return nil, nil
	}
	return sched, nil
}

// parseOutages parses ';'-separated start,dur[,capacity] windows, e.g.
// "0s,6h" (full outage for the first six hours) or "2h,4h,0.25;12h,1h".
func parseOutages(s string) ([]faults.Window, error) {
	var out []faults.Window
	for _, spec := range strings.Split(s, ";") {
		parts := strings.Split(spec, ",")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("outage window %q wants start,dur[,capacity] (e.g. 0s,6h or 2h,4h,0.25)", spec)
		}
		start, err := time.ParseDuration(parts[0])
		if err != nil {
			return nil, fmt.Errorf("outage window %q start: %w", spec, err)
		}
		dur, err := time.ParseDuration(parts[1])
		if err != nil {
			return nil, fmt.Errorf("outage window %q duration: %w", spec, err)
		}
		if dur <= 0 {
			return nil, fmt.Errorf("outage window %q duration %v must be positive", spec, dur)
		}
		w := faults.Window{Start: start, End: start + dur}
		if len(parts) == 3 {
			w.Capacity, err = strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("outage window %q capacity: %w", spec, err)
			}
		}
		out = append(out, w)
	}
	return out, nil
}

// parseRetry parses attempts,base[,max[,jitter]], e.g. "3,30s,10m,0.2".
func parseRetry(s string) (faults.RetryPolicy, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 || len(parts) > 4 {
		return faults.RetryPolicy{}, fmt.Errorf("retry %q wants attempts,base[,max[,jitter]] (e.g. 3,30s,10m,0.2)", s)
	}
	attempts, err := strconv.Atoi(parts[0])
	if err != nil {
		return faults.RetryPolicy{}, fmt.Errorf("retry %q attempts: %w", s, err)
	}
	base, err := time.ParseDuration(parts[1])
	if err != nil {
		return faults.RetryPolicy{}, fmt.Errorf("retry %q base backoff: %w", s, err)
	}
	p := faults.RetryPolicy{MaxAttempts: attempts, Base: base}
	if len(parts) >= 3 {
		if p.Max, err = time.ParseDuration(parts[2]); err != nil {
			return faults.RetryPolicy{}, fmt.Errorf("retry %q backoff cap: %w", s, err)
		}
	}
	if len(parts) == 4 {
		if p.Jitter, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return faults.RetryPolicy{}, fmt.Errorf("retry %q jitter: %w", s, err)
		}
	}
	return p, nil
}

// parseChurn parses up,down mean durations for exponential power cycling,
// e.g. "12h,20m" (phones stay on ~12h, then off ~20m).
func parseChurn(s string) (faults.Churn, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return faults.Churn{}, fmt.Errorf("churn %q wants up,down mean durations (e.g. 12h,20m)", s)
	}
	up, err := time.ParseDuration(parts[0])
	if err != nil {
		return faults.Churn{}, fmt.Errorf("churn %q up-time mean: %w", s, err)
	}
	down, err := time.ParseDuration(parts[1])
	if err != nil {
		return faults.Churn{}, fmt.Errorf("churn %q down-time mean: %w", s, err)
	}
	if up <= 0 || down <= 0 {
		return faults.Churn{}, fmt.Errorf("churn %q means must be positive, got up=%v down=%v", s, up, down)
	}
	return faults.Churn{
		UpTime:   rng.Exponential{MeanD: up},
		DownTime: rng.Exponential{MeanD: down},
	}, nil
}
