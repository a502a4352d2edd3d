package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// populationConfig is the pinned scale scenario: 10^5 phones on a streamed
// Barabási–Albert topology (m=4, mean degree ~8), Virus 3 with 1% of the
// population seeded, 8 shards with a 5-minute window, a 2-hour horizon.
// With responses it adds the paper's strongest combination — gateway scan,
// patch immunization, blacklisting — timed to activate inside the horizon,
// so the barrier-merged response protocol runs at population scale. The
// seed-1 headlines in TestPopulation100kPins depend on every value here.
func populationConfig(responses bool) Config {
	const phones = 100_000
	cfg := Default(virus.Virus3())
	cfg.Population = phones
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.BarabasiAlbertCSR(phones, 4, src)
	}
	cfg.InitialInfected = phones / 100
	cfg.Horizon = 2 * time.Hour
	cfg.Shards = 8
	cfg.ShardWindow = 5 * time.Minute
	if responses {
		cfg.Responses = []mms.ResponseFactory{
			response.NewScan(30 * time.Minute),
			response.NewImmunizer(30*time.Minute, time.Hour),
			response.NewBlacklist(10),
		}
	}
	return cfg
}

// runPopulation builds the topology, population, shard networks and
// engines for (cfg, seed 1) and runs them to the horizon: one op of the
// population benchmarks and of their pins.
func runPopulation(tb testing.TB, cfg Config) (final int, events uint64) {
	tb.Helper()
	sr, err := NewShardedRun(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sr.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res.FinalInfected, sr.ShardSet().EventsFired()
}

// bytesPerPhone is the retained footprint of one built (unrun) replication
// per phone: the live-heap delta across its construction, with forced GCs
// on both sides so allocator churn does not count.
func bytesPerPhone(tb testing.TB, cfg Config) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sr, err := NewShardedRun(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sr)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Population)
}

func benchmarkPopulation(b *testing.B, cfg Config) {
	perPhone := bytesPerPhone(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		_, ev := runPopulation(b, cfg)
		events += ev
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(perPhone, "bytes/phone")
}

func BenchmarkPopulation100k(b *testing.B) {
	benchmarkPopulation(b, populationConfig(false))
}

func BenchmarkPopulation100kResponse(b *testing.B) {
	benchmarkPopulation(b, populationConfig(true))
}

// TestPopulation100kPins pins the population benchmarks' deterministic
// figures: the seed-1 final infected count, allocations per run (the
// recorded count plus slack, counted at GOMAXPROCS 1 as
// testing.AllocsPerRun does), and the per-phone footprint (92.8 B
// recorded bare and 96.9 B with responses, whose blacklist keeps 4 B per
// phone, against one bound of 92.4 B plus 15% for heap-measurement
// jitter). The response run's count repeats exactly: 712, and 714 under
// the race detector, whose runtime adds two. The bare run's is 820–821,
// and 828–829 under the race detector. Each bound is the highest race
// count plus the usual 0.1%.
func TestPopulation100kPins(t *testing.T) {
	const maxBytesPerPhone = 92.4 * 1.15
	for _, tc := range []struct {
		name      string
		responses bool
		final     int
		maxAllocs float64
	}{
		{"bare", false, 10_387, 829 + 1},
		{"response", true, 1_597, 714 + 1},
	} {
		cfg := populationConfig(tc.responses)
		var final int
		allocs := testing.AllocsPerRun(1, func() { final, _ = runPopulation(t, cfg) })
		perPhone := bytesPerPhone(t, cfg)
		t.Logf("%s: final %d, %.0f allocs, %.1f bytes/phone", tc.name, final, allocs, perPhone)
		if final != tc.final {
			t.Errorf("%s: final infected %d, want %d", tc.name, final, tc.final)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("%s: %.0f allocs per run, want at most %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if perPhone > maxBytesPerPhone {
			t.Errorf("%s: %.1f bytes/phone, want at most %.1f", tc.name, perPhone, maxBytesPerPhone)
		}
	}
}
