package store

import "testing"

// BenchmarkCodecRoundTrip times one encode+decode of a real replication's
// result (see realReplication).
func BenchmarkCodecRoundTrip(b *testing.B) {
	res := realReplication(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, res)
	}
}
