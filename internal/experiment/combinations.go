package experiment

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// Section 6 proposes evaluating "combinations of reaction mechanisms,
// particularly when a response mechanism that only slows virus propagation
// requires a secondary mechanism to completely halt virus spread". Beyond
// the single monitor+scan pair of CombinedStudy, this file evaluates the
// full pairwise matrix of representative mechanism variants against a
// chosen virus and ranks singles and pairs by containment.

// MechanismVariant is one representative configuration of a mechanism.
type MechanismVariant struct {
	// Name labels the variant.
	Name string
	// Factory builds the response.
	Factory mms.ResponseFactory
}

// RepresentativeVariants returns one mid-strength variant per mechanism,
// as studied in the paper's figures.
func RepresentativeVariants() []MechanismVariant {
	return []MechanismVariant{
		{Name: "scan 6h", Factory: response.NewScan(6 * time.Hour)},
		{Name: "detector 0.95", Factory: response.NewDetector(0.95, response.DefaultAnalysisDelay)},
		{Name: "education 0.20", Factory: response.NewEducation(0.20)},
		{Name: "immunize 24h+6h", Factory: response.NewImmunizer(24*time.Hour, 6*time.Hour)},
		{Name: "monitor 15m", Factory: response.NewMonitor(15 * time.Minute)},
		{Name: "blacklist 20", Factory: response.NewBlacklist(20)},
	}
}

// CombinationResult is one evaluated single or pair.
type CombinationResult struct {
	// Names lists the combined mechanisms (1 or 2 entries).
	Names []string
	// FinalInfected is the mean final infection count.
	FinalInfected float64
	// Synergy, for pairs, is how much the pair beats its better single:
	// min(single finals) − pair final. Positive means the combination
	// helps beyond its best component.
	Synergy float64
}

// RunCombinationMatrix evaluates the baseline, every single variant, and
// every unordered pair against the virus, returning results sorted by
// final infections (best first) with the baseline last. The whole matrix
// runs as one figure (baseline, singles, then pairs) on one worker pool
// (opts.Parallelism wide), so nothing waits on a per-scenario barrier.
func RunCombinationMatrix(s Scale, v virus.Config, variants []MechanismVariant, opts core.Options) ([]CombinationResult, float64, error) {
	if len(variants) < 2 {
		return nil, 0, fmt.Errorf("experiment: combination matrix needs >= 2 variants")
	}
	fig := Figure{ID: "combinations", Title: "Pairwise combination matrix (" + v.Name + ")"}
	add := func(label string, factories ...mms.ResponseFactory) {
		cfg := s.paperConfig(v)
		cfg.Responses = factories
		fig.Series = append(fig.Series, Series{Label: label, Config: cfg})
	}
	add("Baseline")
	for _, m := range variants {
		add(m.Name, m.Factory)
	}
	for i := 0; i < len(variants); i++ {
		for j := i + 1; j < len(variants); j++ {
			add(variants[i].Name+" + "+variants[j].Name, variants[i].Factory, variants[j].Factory)
		}
	}
	sr, err := RunSweep(context.TODO(), []Figure{fig}, opts, SweepOptions{Jobs: opts.Parallelism})
	if err != nil {
		return nil, 0, err
	}
	fr := sr.Figures[0]

	// Read the series back in the order they were added.
	singles := fr.Series[1 : 1+len(variants)]
	pairs := fr.Series[1+len(variants):]
	results := make([]CombinationResult, 0, len(singles)+len(pairs))
	for i, m := range variants {
		results = append(results, CombinationResult{
			Names:         []string{m.Name},
			FinalInfected: singles[i].FinalMean,
		})
	}
	for i := 0; i < len(variants); i++ {
		for j := i + 1; j < len(variants); j++ {
			final := pairs[0].FinalMean
			pairs = pairs[1:]
			results = append(results, CombinationResult{
				Names:         []string{variants[i].Name, variants[j].Name},
				FinalInfected: final,
				Synergy:       min(singles[i].FinalMean, singles[j].FinalMean) - final,
			})
		}
	}
	sort.SliceStable(results, func(x, y int) bool {
		return results[x].FinalInfected < results[y].FinalInfected
	})
	return results, fr.Series[0].FinalMean, nil
}
