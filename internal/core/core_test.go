package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
	"repro/internal/virus"
)

// smallConfig returns a scaled-down paper scenario that runs in
// milliseconds: 120 phones, mean degree 12.
func smallConfig(v virus.Config) Config {
	cfg := Default(v)
	cfg.Population = 120
	cfg.Graph.MeanDegree = 12
	cfg.Horizon = 48 * time.Hour
	return cfg
}

func TestDefaultMatchesPaper(t *testing.T) {
	t.Parallel()

	cfg := Default(virus.Virus1())
	if cfg.Population != 1000 {
		t.Errorf("population = %d, want 1000", cfg.Population)
	}
	if cfg.SusceptibleFraction != 0.8 {
		t.Errorf("susceptible fraction = %v, want 0.8", cfg.SusceptibleFraction)
	}
	if cfg.Graph.MeanDegree != 80 {
		t.Errorf("mean contact-list size = %v, want 80", cfg.Graph.MeanDegree)
	}
	if cfg.InitialInfected != 1 {
		t.Errorf("initial infected = %d, want 1", cfg.InitialInfected)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestHorizons(t *testing.T) {
	t.Parallel()

	if h := Default(virus.Virus1()).Horizon; h != 432*time.Hour {
		t.Errorf("Virus 1 horizon = %v, want 432h", h)
	}
	if h := Default(virus.Virus2()).Horizon; h != 240*time.Hour {
		t.Errorf("Virus 2 horizon = %v, want 240h", h)
	}
	if h := Default(virus.Virus3()).Horizon; h != 24*time.Hour {
		t.Errorf("Virus 3 horizon = %v, want 24h", h)
	}
	if h := Default(virus.Virus4()).Horizon; h != 432*time.Hour {
		t.Errorf("Virus 4 horizon = %v, want 432h", h)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tiny population", func(c *Config) { c.Population = 1 }},
		{"zero susceptible", func(c *Config) { c.SusceptibleFraction = 0 }},
		{"fraction above one", func(c *Config) { c.SusceptibleFraction = 1.5 }},
		{"no seeds", func(c *Config) { c.InitialInfected = 0 }},
		{"too many seeds", func(c *Config) { c.InitialInfected = 1000 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"bad virus", func(c *Config) { c.Virus = virus.Config{} }},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(virus.Virus3())
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunOnceBasics(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	res, err := RunOnce(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected < 1 {
		t.Error("no infections recorded")
	}
	if !res.Infections.Monotone() {
		t.Error("infection curve not monotone")
	}
	if got := res.Infections.Final(); got != float64(res.FinalInfected) {
		t.Errorf("curve final %v != FinalInfected %d", got, res.FinalInfected)
	}
	if res.Network.MessagesSent == 0 {
		t.Error("no messages sent")
	}
	// The susceptible pool bounds the infection count.
	maxSusceptible := int(cfg.SusceptibleFraction*float64(cfg.Population) + 0.5)
	if res.FinalInfected > maxSusceptible {
		t.Errorf("infected %d exceeds susceptible pool %d", res.FinalInfected, maxSusceptible)
	}
}

func TestRunOnceDeterministic(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	a, err := RunOnce(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalInfected != b.FinalInfected {
		t.Errorf("same seed, different outcomes: %d vs %d", a.FinalInfected, b.FinalInfected)
	}
	if a.Network.MessagesSent != b.Network.MessagesSent {
		t.Errorf("message counts diverged: %d vs %d", a.Network.MessagesSent, b.Network.MessagesSent)
	}
	c, err := RunOnce(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalInfected == c.FinalInfected && a.Network.MessagesSent == c.Network.MessagesSent {
		t.Log("different seeds produced identical results (possible but unlikely)")
	}
}

func TestRunAggregates(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	rs, err := Run(cfg, Options{Replications: 4, GridPoints: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(rs.Results))
	}
	if rs.Band.Len() != 21 {
		t.Errorf("band has %d points, want 21", rs.Band.Len())
	}
	if rs.FinalMean() < 1 {
		t.Error("mean final infections below 1")
	}
	// Band mean must be non-decreasing for cumulative infections.
	for i := 1; i < rs.Band.Len(); i++ {
		if rs.Band.Mean[i] < rs.Band.Mean[i-1] {
			t.Fatalf("band mean decreases at %d: %v -> %v", i, rs.Band.Mean[i-1], rs.Band.Mean[i])
		}
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	par, err := Run(cfg, Options{Replications: 4, GridPoints: 10, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := Run(cfg, Options{Replications: 4, GridPoints: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.Results {
		if par.Results[i].FinalInfected != ser.Results[i].FinalInfected {
			t.Errorf("replication %d differs between parallel and serial: %d vs %d",
				i, par.Results[i].FinalInfected, ser.Results[i].FinalInfected)
		}
	}
}

func TestRunNilResponseFactoryRejected(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.Responses = []mms.ResponseFactory{nil}
	if _, err := RunOnce(cfg, 1); err == nil {
		t.Error("nil response factory accepted")
	}
}

func TestCSRBuilderOverride(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.ErdosRenyi(cfg.Population, 0.1, src)
	}
	res, err := RunOnce(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected < 1 {
		t.Error("no infections on custom topology")
	}

	// A builder returning the wrong size must be rejected.
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.ErdosRenyi(10, 0.1, src)
	}
	if _, err := RunOnce(cfg, 5); err == nil {
		t.Error("wrong-size graph accepted")
	}

	// Builder errors propagate.
	boom := errors.New("boom")
	cfg.CSRBuilder = func(*rng.Source) (*graph.CSR, error) { return nil, boom }
	if _, err := RunOnce(cfg, 5); !errors.Is(err, boom) {
		t.Errorf("builder error not propagated: %v", err)
	}
}

// TestGraphBuilderOverride pins that the retired GraphBuilder field is
// rejected, with a message that points at CSRBuilder, rather than silently
// ignored.
func TestGraphBuilderOverride(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.GraphBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.ErdosRenyi(cfg.Population, 0.1, src)
	}
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "CSRBuilder") {
		t.Errorf("Validate with GraphBuilder set: %v, want an error naming CSRBuilder", err)
	}
	if _, err := RunOnce(cfg, 5); err == nil {
		t.Error("RunOnce ran a config with GraphBuilder set")
	}
}

func TestVulnerabilityFractionApplied(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.SusceptibleFraction = 0.5
	cfg.Horizon = time.Hour
	res, err := RunOnce(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected > 60 {
		t.Errorf("infected %d exceeds 50%% susceptible pool of 60", res.FinalInfected)
	}
}

func TestMultipleSeeds(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.InitialInfected = 5
	cfg.Horizon = time.Minute
	res, err := RunOnce(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected < 5 {
		t.Errorf("initial infections %d, want >= 5", res.FinalInfected)
	}
	if got := res.Infections.At(0); got != 5 {
		t.Errorf("curve at t=0 is %v, want 5", got)
	}
}

func TestGatewayDetectionReported(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	res, err := RunOnce(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GatewayDetected {
		t.Fatal("virus never detected by gateway")
	}
	if res.GatewayDetectedAt <= 0 || res.GatewayDetectedAt > cfg.Horizon {
		t.Errorf("detection time %v outside run", res.GatewayDetectedAt)
	}
}

func TestOptionsDefaults(t *testing.T) {
	t.Parallel()

	o := Options{}.WithDefaults()
	if o.Replications != 10 || o.BaseSeed != 1 || o.GridPoints != 200 || o.Parallelism < 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// panicOnce returns a PostRun hook that panics in exactly one replication
// (the first to reach it; use Parallelism 1 for a deterministic victim).
func panicOnce() func(*mms.ShardSet) {
	var fired int32
	return func(*mms.ShardSet) {
		if atomic.AddInt32(&fired, 1) == 1 {
			panic("injected replication failure")
		}
	}
}

func TestRunRecoversPanickingReplication(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.PostRun = panicOnce()
	rs, err := Run(cfg, Options{Replications: 3, GridPoints: 10, Parallelism: 1})
	if err == nil {
		t.Fatal("panicking replication did not surface as an error")
	}
	var rep *ReplicationError
	if !errors.As(err, &rep) {
		t.Fatalf("error %v does not unwrap to *ReplicationError", err)
	}
	if rep.Replication != 0 {
		t.Errorf("panicked replication = %d, want 0 (serial order)", rep.Replication)
	}
	if rep.Seed != 1 {
		t.Errorf("ReplicationError.Seed = %#x, want the base seed 1", rep.Seed)
	}
	if len(rep.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if !strings.Contains(rep.Error(), "panicked") {
		t.Errorf("Error() = %q, want mention of the panic", rep.Error())
	}
	// Partial results: the surviving replications are returned alongside
	// the error, aggregated into a band.
	if rs == nil {
		t.Fatal("no RunSet alongside the error")
	}
	if len(rs.Results) != 2 || len(rs.Seeds) != 2 {
		t.Fatalf("surviving results = %d (seeds %d), want 2", len(rs.Results), len(rs.Seeds))
	}
	if rs.Band == nil {
		t.Error("survivors not aggregated into a band")
	}
}

// TestRunPartialResultsOnError is the regression test for the RunSet
// contract: a failing replication must not discard the completed ones.
func TestRunPartialResultsOnError(t *testing.T) {
	t.Parallel()

	var calls int32
	cfg := smallConfig(virus.Virus3())
	cfg.Responses = []mms.ResponseFactory{func() mms.Response {
		return failOnceResponse{firstCall: atomic.AddInt32(&calls, 1) == 1}
	}}
	rs, err := Run(cfg, Options{Replications: 4, GridPoints: 10, Parallelism: 1})
	if err == nil {
		t.Fatal("failing replication reported no error")
	}
	if rs == nil {
		t.Fatal("completed results discarded on error")
	}
	if len(rs.Results) != 3 {
		t.Fatalf("got %d surviving results, want 3", len(rs.Results))
	}
	if rs.Band == nil {
		t.Error("survivors not aggregated")
	}
	for i, r := range rs.Results {
		if r == nil {
			t.Errorf("surviving result %d is nil", i)
		}
	}
	var rep *ReplicationError
	if !errors.As(err, &rep) || rep.Replication != 0 || len(rep.Stack) != 0 {
		t.Errorf("error %v, want a non-panic ReplicationError for replication 0", err)
	}
}

type failOnceResponse struct{ firstCall bool }

func (f failOnceResponse) Name() string { return "fail-once" }
func (f failOnceResponse) Attach(*mms.ShardSet, *rng.Source) error {
	if f.firstCall {
		return errors.New("injected attach failure")
	}
	return nil
}

func TestRunSalvageQuorum(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.PostRun = panicOnce()
	rs, err := Run(cfg, Options{Replications: 4, GridPoints: 10, Parallelism: 1, MinReplications: 3})
	if err != nil {
		t.Fatalf("salvage with 3/4 survivors errored: %v", err)
	}
	if len(rs.Results) != 3 {
		t.Fatalf("got %d results, want 3 survivors", len(rs.Results))
	}
	if len(rs.Failed) != 1 {
		t.Fatalf("got %d recorded failures, want 1", len(rs.Failed))
	}
	if rs.Failed[0].Replication != 0 || len(rs.Failed[0].Stack) == 0 {
		t.Errorf("recorded failure = %+v, want replication 0 with a stack", rs.Failed[0])
	}
	if rs.Band == nil || rs.FinalMean() < 1 {
		t.Error("salvaged band missing or empty")
	}

	// Below quorum the same scenario is an error again.
	cfg.PostRun = func(*mms.ShardSet) { panic("all replications fail") }
	if _, err := Run(cfg, Options{Replications: 4, GridPoints: 10, Parallelism: 1, MinReplications: 3}); err == nil {
		t.Error("0/4 survivors met a quorum of 3")
	}

	// A quorum above the replication count is a configuration error.
	if _, err := Run(smallConfig(virus.Virus3()), Options{Replications: 2, MinReplications: 3}); err == nil {
		t.Error("quorum above replication count accepted")
	}
}

func TestRunContextCancellation(t *testing.T) {
	t.Parallel()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig(virus.Virus3())
	rs, err := RunContext(ctx, cfg, Options{Replications: 3, GridPoints: 10})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if len(rs.Results) != 0 || rs.Band != nil {
		t.Errorf("cancelled run produced results: %d results, band %v", len(rs.Results), rs.Band != nil)
	}
	var rep *ReplicationError
	if !errors.As(err, &rep) {
		t.Error("cancellation not wrapped in ReplicationError")
	}
}

func TestRunOnceContextMatchesRunOnce(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	plain, err := RunOnce(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := RunOnceContext(context.Background(), cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalInfected != sliced.FinalInfected || plain.Network != sliced.Network {
		t.Errorf("sliced horizon diverged: %+v vs %+v", plain.Network, sliced.Network)
	}
}

// TestFaultScheduleDeterministicAcrossRuns is the acceptance check that an
// identical seed and identical faults.Schedule reproduce a byte-identical
// aggregated curve.
func TestFaultScheduleDeterministicAcrossRuns(t *testing.T) {
	t.Parallel()

	cfg := smallConfig(virus.Virus3())
	cfg.Faults = &faults.Schedule{
		Outages: []faults.Window{{Start: 2 * time.Hour, End: 8 * time.Hour, Capacity: 0.2}},
		Retry:   faults.RetryPolicy{MaxAttempts: 3, Base: 30 * time.Second, Jitter: 0.3},
		Churn: faults.Churn{
			UpTime:   rng.Exponential{MeanD: 10 * time.Hour},
			DownTime: rng.Exponential{MeanD: 30 * time.Minute},
		},
	}
	opts := Options{Replications: 3, GridPoints: 20}
	a, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Band, b.Band) {
		t.Error("same seed and schedule, different aggregated bands")
	}
	for i := range a.Results {
		if a.Results[i].Network != b.Results[i].Network {
			t.Errorf("replication %d metrics diverged:\n%+v\n%+v",
				i, a.Results[i].Network, b.Results[i].Network)
		}
	}

	// The schedule must actually bite: the faulty band differs from the
	// fault-free one.
	clean := cfg
	clean.Faults = nil
	base, err := Run(clean, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Band, base.Band) {
		t.Error("fault schedule had no effect on the aggregated band")
	}
}

// TestReplicationSeedStride pins the claim on the replication seed spread:
// neighboring seeds must yield non-overlapping generator trajectories for
// at least the first 10,000 draws.
func TestReplicationSeedStride(t *testing.T) {
	t.Parallel()

	const reps = 8
	const draws = 10000
	seen := make(map[uint64]int, reps*draws)
	for i := 0; i < reps; i++ {
		src := rng.New(ReplicationSeed(1, i))
		for d := 0; d < draws; d++ {
			v := src.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("draw collision between replication streams %d and %d (value %#x)", prev, i, v)
			}
			seen[v] = i
		}
	}
}
