// Command mvgraph generates and inspects the contact-list graphs underlying
// the virus simulations (the NGCE substitute).
//
// Usage:
//
//	mvgraph -n 1000 -mean 80 -out contacts.txt     # generate
//	mvgraph -stats contacts.txt                    # inspect a file
//	mvgraph -n 1000 -mean 80 -model ba             # other generators
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mvgraph:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 1000, "number of phones")
		mean      = flag.Float64("mean", 80, "mean contact-list size")
		exponent  = flag.Float64("exponent", 2.5, "power-law exponent")
		locality  = flag.Bool("locality", true, "wire contacts with social locality (clustered)")
		longRange = flag.Float64("longrange", 0.05, "long-range link fraction under locality")
		model     = flag.String("model", "powerlaw", "generator: powerlaw, ba, er, ws")
		seed      = flag.Uint64("seed", 1, "random seed")
		out       = flag.String("out", "", "write contact lists to this file ('' = stdout)")
		statsPath = flag.String("stats", "", "read a contact-list file and print its metrics instead of generating")
	)
	flag.Parse()

	if *statsPath != "" {
		f, err := os.Open(*statsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := graph.ReadContactLists(f)
		if err != nil {
			return err
		}
		printStats(g)
		return nil
	}

	g, err := generate(generateParams{
		Model:     *model,
		N:         *n,
		Mean:      *mean,
		Exponent:  *exponent,
		Locality:  *locality,
		LongRange: *longRange,
	}, rng.New(*seed))
	if err != nil {
		return err
	}
	printStats(g)

	w := io.Writer(os.Stdout)
	var commit func() error
	if *out != "" {
		af, err := store.CreateAtomic(store.OS, *out)
		if err != nil {
			return err
		}
		// Abort is a no-op after Commit; this only cleans up error paths.
		defer af.Abort()
		w = af
		commit = af.Commit
	}
	if err := g.WriteContactLists(w); err != nil {
		return err
	}
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	return nil
}

// generateParams collects the generator knobs for dispatch.
type generateParams struct {
	Model     string
	N         int
	Mean      float64
	Exponent  float64
	Locality  bool
	LongRange float64
}

// generate dispatches to the selected graph generator.
func generate(p generateParams, src *rng.Source) (*graph.CSR, error) {
	switch p.Model {
	case "powerlaw":
		cfg := graph.PowerLawConfig{
			N:                 p.N,
			MeanDegree:        p.Mean,
			Exponent:          p.Exponent,
			MinDegree:         4,
			Locality:          p.Locality,
			LongRangeFraction: p.LongRange,
		}
		return graph.PowerLaw(cfg, src)
	case "ba":
		m := int(p.Mean / 2)
		if m < 1 {
			m = 1
		}
		return graph.BarabasiAlbertCSR(p.N, m, src)
	case "er":
		if p.N < 2 {
			return nil, fmt.Errorf("er model needs n >= 2")
		}
		prob := p.Mean / float64(p.N-1)
		return graph.ErdosRenyi(p.N, prob, src)
	case "ws":
		k := int(p.Mean)
		if k%2 == 1 {
			k++
		}
		return graph.WattsStrogatz(p.N, k, 0.1, src)
	default:
		return nil, fmt.Errorf("unknown model %q (want powerlaw, ba, er, ws)", p.Model)
	}
}

func printStats(g *graph.CSR) {
	st := g.ComputeDegreeStats()
	fmt.Fprintf(os.Stderr,
		"phones=%d links=%d meanDegree=%.1f medianDegree=%.0f maxDegree=%d tailExponent=%.2f\n",
		g.N(), g.M(), st.Mean, st.Median, st.Max, st.TailExponent)
	fmt.Fprintf(os.Stderr,
		"clustering=%.3f meanPath=%.2f giantComponent=%.3f\n",
		g.ClusteringCoefficient(), g.MeanShortestPathSample(20), g.GiantComponentFraction())
}
