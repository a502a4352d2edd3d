package graph

import (
	"testing"

	"repro/internal/rng"
)

// BenchmarkPowerLawPaperGraph measures generating the paper's 1,000-phone
// contact topology.
func BenchmarkPowerLawPaperGraph(b *testing.B) {
	cfg := DefaultPowerLawConfig()
	for i := 0; i < b.N; i++ {
		if _, err := PowerLaw(cfg, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerLawConfigurationModel measures the non-local variant.
func BenchmarkPowerLawConfigurationModel(b *testing.B) {
	cfg := DefaultPowerLawConfig()
	cfg.Locality = false
	for i := 0; i < b.N; i++ {
		if _, err := PowerLaw(cfg, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusteringCoefficient measures the O(sum d^2) clustering metric
// on the paper graph.
func BenchmarkClusteringCoefficient(b *testing.B) {
	g, err := PowerLaw(DefaultPowerLawConfig(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = g.ClusteringCoefficient()
	}
	_ = sink
}

// BenchmarkHasEdge measures adjacency lookups on the paper graph.
func BenchmarkHasEdge(b *testing.B) {
	g, err := PowerLaw(DefaultPowerLawConfig(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = g.HasEdge(i%1000, (i*7)%1000)
	}
	_ = sink
}

// BenchmarkBarabasiAlbertCSR measures building a 10^5-node, m=4
// preferential-attachment topology straight into CSR form, the construction
// step of every scale replication.
func BenchmarkBarabasiAlbertCSR(b *testing.B) {
	benchmarkBarabasiAlbertCSR(b, 100_000)
}

// BenchmarkBarabasiAlbertCSR1M is the same build at the scale workloads'
// 10^6 nodes. Its draws land in 16 MB of chosen targets rather than the
// 10^5 graph's mostly cache-resident 1.6 MB, so it pays the cache misses
// the scale workloads pay.
func BenchmarkBarabasiAlbertCSR1M(b *testing.B) {
	benchmarkBarabasiAlbertCSR(b, 1_000_000)
}

func benchmarkBarabasiAlbertCSR(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BarabasiAlbertCSR(n, 4, rng.New(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
