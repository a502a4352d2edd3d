package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// shardedTestConfig is a small-but-nontrivial sharded scenario: a streamed
// BA topology, the fast Virus 3, several seeds so every shard sees traffic.
func shardedTestConfig(shards, workers int) Config {
	cfg := Default(virus.Virus3())
	cfg.Population = 600
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.BarabasiAlbertCSR(600, 4, src)
	}
	cfg.InitialInfected = 6
	cfg.Horizon = 12 * time.Hour
	cfg.Shards = shards
	cfg.ShardWindow = 15 * time.Minute
	cfg.ShardWorkers = workers
	return cfg
}

// TestShardedRunDeterministicAcrossWorkerCounts pins the conservative-window
// protocol's core guarantee: the trajectory is a pure function of (config,
// seed, shards, window) — pool width cannot perturb it.
func TestShardedRunDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	var base *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := RunOnce(shardedTestConfig(4, workers), 42)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			if res.FinalInfected <= 6 {
				t.Fatalf("virus did not spread: final=%d", res.FinalInfected)
			}
			continue
		}
		if res.FinalInfected != base.FinalInfected {
			t.Errorf("workers=%d: final=%d, want %d", workers, res.FinalInfected, base.FinalInfected)
		}
		if !reflect.DeepEqual(res.Infections.Points(), base.Infections.Points()) {
			t.Errorf("workers=%d: infection curve diverged", workers)
		}
		if res.Network != base.Network {
			t.Errorf("workers=%d: metrics diverged: %+v vs %+v", workers, res.Network, base.Network)
		}
		if res.Engine != base.Engine {
			t.Errorf("workers=%d: engine stats diverged", workers)
		}
		if res.GatewayDetected != base.GatewayDetected || res.GatewayDetectedAt != base.GatewayDetectedAt {
			t.Errorf("workers=%d: detection diverged", workers)
		}
	}
}

// TestShardSetDriversAgree pins the equivalence perfbench's traced driver
// relies on: an 8-shard set driven window by window through the serial
// RunWindow, which injects each destination's copies and runs each
// shard's barrier hooks inline, ends in the same state as Run on 1, 2 or
// 8 workers, which runs both as pool tasks. Scan and immunization make
// detection and the barrier hooks part of the comparison; two immunizers
// with different windows share each shard's hook task, and an instant
// deployment releases a wave whose install times all tie, so every tie
// breaks by phone id.
func TestShardSetDriversAgree(t *testing.T) {
	t.Parallel()
	type outcome struct {
		events     []mms.InfectionEvent
		metrics    mms.Metrics
		fired      uint64
		detected   bool
		detectedAt time.Duration
	}
	collect := func(set *mms.ShardSet) outcome {
		o := outcome{events: set.InfectionEvents(), metrics: set.Metrics(), fired: set.EventsFired()}
		o.detectedAt, o.detected = set.Detected()
		return o
	}
	horizon := shardedTestConfig(8, 0).Horizon
	for _, tc := range []struct {
		name      string
		responses []mms.ResponseFactory
	}{
		{"scan+immunize", []mms.ResponseFactory{
			response.NewScan(2 * time.Hour),
			response.NewImmunizer(time.Hour, 2*time.Hour),
		}},
		{"two-immunizers", []mms.ResponseFactory{
			response.NewImmunizer(time.Hour, 2*time.Hour),
			response.NewImmunizer(90*time.Minute, 20*time.Minute),
		}},
		{"immunize-instant", []mms.ResponseFactory{
			response.NewImmunizer(time.Hour, 0),
		}},
	} {
		build := func() *mms.ShardSet {
			cfg := shardedTestConfig(8, 0)
			cfg.Responses = tc.responses
			sr, err := NewShardedRun(cfg, 42)
			if err != nil {
				t.Fatal(err)
			}
			return sr.ShardSet()
		}
		set := build()
		window := set.Window()
		for b := window; ; b += window {
			b = min(b, horizon)
			set.RunWindow(b, min(b+window, horizon))
			if b >= horizon {
				break
			}
		}
		want := collect(set)
		if len(want.events) <= 6 || !want.detected || want.metrics.Patched == 0 {
			t.Fatalf("%s: scenario too quiet: %d infections, detected %v, %d patched",
				tc.name, len(want.events), want.detected, want.metrics.Patched)
		}
		for _, workers := range []int{1, 2, 8} {
			set := build()
			if err := set.Run(context.Background(), horizon, workers); err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			got := collect(set)
			if !reflect.DeepEqual(got.events, want.events) {
				t.Errorf("%s, workers=%d: %d infection events differ from RunWindow's %d",
					tc.name, workers, len(got.events), len(want.events))
			}
			if got.metrics != want.metrics {
				t.Errorf("%s, workers=%d: metrics %+v, RunWindow %+v", tc.name, workers, got.metrics, want.metrics)
			}
			if got.fired != want.fired {
				t.Errorf("%s, workers=%d: %d events fired, RunWindow %d", tc.name, workers, got.fired, want.fired)
			}
			if got.detected != want.detected || got.detectedAt != want.detectedAt {
				t.Errorf("%s, workers=%d: detection (%v, %v), RunWindow (%v, %v)",
					tc.name, workers, got.detected, got.detectedAt, want.detected, want.detectedAt)
			}
		}
	}
}

// TestShardedRunShardCountChangesAreExplicit documents that the shard count
// is part of the trajectory's identity (it is fingerprinted): different
// shard counts are allowed to differ.
func TestShardedRunMatchesAcrossRepeatedRuns(t *testing.T) {
	t.Parallel()
	a, err := RunOnce(shardedTestConfig(3, 0), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnce(shardedTestConfig(3, 0), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalInfected != b.FinalInfected || !reflect.DeepEqual(a.Infections.Points(), b.Infections.Points()) {
		t.Error("repeated sharded runs with identical configs diverged")
	}
}

// TestShardedRunReportsDetection checks the merged cross-shard gateway view:
// with Virus 3 hammering the gateway, detection must fire and carry a
// positive time.
func TestShardedRunReportsDetection(t *testing.T) {
	t.Parallel()
	res, err := RunOnce(shardedTestConfig(4, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GatewayDetected {
		t.Fatal("gateway never detected a flood-style virus")
	}
	if res.GatewayDetectedAt <= 0 || res.GatewayDetectedAt > 12*time.Hour {
		t.Fatalf("detection time %v outside the horizon", res.GatewayDetectedAt)
	}
}

// TestShardedValidationMatrix pins every cell of the many-shard feature
// matrix: response mechanisms, background legitimate traffic and PostRun
// hooks are supported on any shard count, while fault injection stays
// rejected, and the structural misconfigurations are rejected at one shard
// and at many.
func TestShardedValidationMatrix(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		accept bool
		mutate func(*Config)
	}{
		{"baseline", true, func(*Config) {}},
		{"responses", true, func(c *Config) {
			c.Responses = []mms.ResponseFactory{func() mms.Response { return nil }}
		}},
		{"legit traffic", true, func(c *Config) {
			c.Network.LegitSendInterval = rng.Exponential{MeanD: time.Hour}
		}},
		{"responses+legit traffic", true, func(c *Config) {
			c.Responses = []mms.ResponseFactory{func() mms.Response { return nil }}
			c.Network.LegitSendInterval = rng.Exponential{MeanD: time.Hour}
		}},
		{"fault schedule", false, func(c *Config) {
			c.Faults = &faults.Schedule{Outages: []faults.Window{{Start: time.Hour, End: 2 * time.Hour}}}
		}},
		{"network faults", false, func(c *Config) {
			c.Network.Faults = &faults.Schedule{Outages: []faults.Window{{Start: time.Hour, End: 2 * time.Hour}}}
		}},
		{"postrun", true, func(c *Config) { c.PostRun = func(*mms.ShardSet) {} }},
		{"responses+faults", false, func(c *Config) {
			c.Responses = []mms.ResponseFactory{func() mms.Response { return nil }}
			c.Faults = &faults.Schedule{Outages: []faults.Window{{Start: time.Hour, End: 2 * time.Hour}}}
		}},
	}
	for _, tc := range cases {
		cfg := shardedTestConfig(4, 0)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.accept && err != nil {
			t.Errorf("%s: Validate rejected a supported sharded config: %v", tc.name, err)
		}
		if !tc.accept && err == nil {
			t.Errorf("%s: Validate accepted a sharded config that needs one-shard features", tc.name)
		}
	}
	structural := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too many shards", func(c *Config) { c.Shards = c.Population + 1 }},
		{"negative shards", func(c *Config) { c.Shards = -3 }},
		{"negative window", func(c *Config) { c.ShardWindow = -time.Second }},
		{"retired GraphBuilder", func(c *Config) {
			c.GraphBuilder = func(src *rng.Source) (*graph.CSR, error) {
				return graph.BarabasiAlbertCSR(600, 4, src)
			}
		}},
	}
	for _, shards := range []int{1, 4} {
		for _, tc := range structural {
			cfg := shardedTestConfig(shards, 0)
			tc.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Errorf("%s: Validate accepted it at %d shards", tc.name, shards)
			}
		}
	}
}

// TestPostRunSeesShardSet checks that the PostRun hook receives the live
// shard set on one shard and on many: the attached mechanisms in attach
// order and the final infection state the Result reports.
func TestPostRunSeesShardSet(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 4} {
		cfg := shardedTestConfig(shards, 0)
		cfg.Responses = []mms.ResponseFactory{response.NewBlacklist(10)}
		var infected, blacklisted int
		cfg.PostRun = func(set *mms.ShardSet) {
			infected = set.InfectedCount()
			blacklisted = len(set.Responses()[0].(*response.Blacklist).BlacklistedPhones())
		}
		res, err := RunOnce(cfg, 9)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if infected != res.FinalInfected {
			t.Errorf("shards=%d: PostRun saw %d infected, Result reports %d", shards, infected, res.FinalInfected)
		}
		if blacklisted == 0 {
			t.Errorf("shards=%d: PostRun saw an empty blacklist under Virus 3", shards)
		}
	}
}

// TestShardedRunHonoursContext checks that cancellation between windows
// aborts the run with the context error attached.
func TestShardedRunHonoursContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunOnceContext(ctx, shardedTestConfig(2, 0), 1); err == nil {
		t.Fatal("cancelled context did not abort the sharded run")
	}
}

// TestShardedDefaultWindow checks that ShardWindow zero picks the documented
// Horizon/128 default rather than failing.
func TestShardedDefaultWindow(t *testing.T) {
	t.Parallel()
	cfg := shardedTestConfig(2, 0)
	cfg.ShardWindow = 0
	if _, err := RunOnce(cfg, 5); err != nil {
		t.Fatal(err)
	}
}
