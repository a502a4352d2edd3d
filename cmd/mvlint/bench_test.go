package main

import (
	"testing"

	"repro/internal/analysis"
)

// BenchmarkLintModule times one full lint run over the whole module —
// parse, type-check, call graph and every rule — on the same packages
// `make lint` checks from the repository root.
func BenchmarkLintModule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkgs, err := analysis.NewLoader().LoadPatterns([]string{"../../..."})
		if err != nil {
			b.Fatal(err)
		}
		analysis.Run(pkgs, nil, nil)
	}
}
