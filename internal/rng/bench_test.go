package rng

import "testing"

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Float64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Exp(1.5)
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Intn(1000)
	}
	_ = sink
}

func BenchmarkStream(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Stream(uint64(i))
	}
}
