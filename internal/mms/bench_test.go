package mms

import (
	"testing"

	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/rng"
)

// benchNet builds a 1,000-phone network on the paper topology.
func benchNet(b *testing.B) (*Network, *des.Simulation) {
	b.Helper()
	g, err := graph.PowerLaw(graph.DefaultPowerLawConfig(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	vuln := make([]bool, g.N())
	for i := range vuln {
		vuln[i] = true
	}
	sim := des.New()
	net, err := NewCSR(g, vuln, DefaultConfig(), sim, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	return net, sim
}

// BenchmarkSendSingleRecipient measures the per-message cost of the full
// controller/gateway/delivery pipeline.
func BenchmarkSendSingleRecipient(b *testing.B) {
	net, sim := benchNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := PhoneID((i + 1) % net.N())
		if _, err := net.Send(0, []Target{ValidTarget(target)}); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			b.StopTimer()
			sim.Run() // drain scheduled reads so the heap stays bounded
			b.StartTimer()
		}
	}
}

// BenchmarkSendMultiRecipient measures the Virus 2-style 100-recipient
// fan-out.
func BenchmarkSendMultiRecipient(b *testing.B) {
	net, sim := benchNet(b)
	targets := make([]Target, 100)
	for i := range targets {
		targets[i] = ValidTarget(PhoneID(i + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Send(0, targets); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			b.StopTimer()
			sim.Run()
			b.StartTimer()
		}
	}
}

// BenchmarkAcceptanceProbability measures the consent-model hot path.
func BenchmarkAcceptanceProbability(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = AcceptanceProbability(PaperAcceptanceFactor, i%20+1)
	}
	_ = sink
}

// BenchmarkShardExchange times one steady-state window of the cross-shard
// exchange (see shardExchange).
func BenchmarkShardExchange(b *testing.B) {
	op, _ := shardExchange(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkShardExchangeFanIn times one steady-state window of the
// all-to-all cross-shard exchange over eight shards (see
// shardExchangeFanIn).
func BenchmarkShardExchangeFanIn(b *testing.B) {
	op, _ := shardExchangeFanIn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
