// Diminishing returns: Section 5.3 of the paper argues its results locate
// "the point of diminishing returns for each individual response
// mechanism, the point where implementing a faster or more accurate
// response mechanism does not much improve the success rate". This example
// runs that analysis for three mechanisms and also inspects the
// transmission tree of a contained outbreak.
//
//	go run ./examples/diminishingreturns
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

func main() {
	opts := core.Options{Replications: 5, GridPoints: 40}
	sweeps := []experiment.Sweep{
		experiment.ScanReturnsSweep(experiment.FullScale),
		experiment.MonitorReturnsSweep(experiment.FullScale),
		experiment.ImmunizerReturnsSweep(experiment.FullScale),
	}
	// The three sweeps run as one: every replication shares one worker
	// pool, and the knee of each is read from its figure's result.
	figs := make([]experiment.Figure, len(sweeps))
	for i, sweep := range sweeps {
		figs[i] = sweep.Figure()
	}
	sr, err := experiment.RunSweep(context.Background(), figs, opts, experiment.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, fr := range sr.Figures {
		res, err := experiment.EvaluateKnee(fr, 0.08)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (baseline %.0f infected)\n", res.Name, res.Baseline)
		fmt.Printf("  %-18s %10s %12s %14s\n", "level", "final", "prevented", "marginal gain")
		for i, p := range res.Points {
			marker := ""
			if i == res.KneeIndex {
				marker = "  <- diminishing returns"
			}
			fmt.Printf("  %-18s %10.1f %12.1f %14.1f%s\n",
				p.Label, p.Final, p.Prevented, p.MarginalGain, marker)
		}
		fmt.Println()
	}

	// Transmission-tree view of a contained outbreak: blacklisting at
	// threshold 10 cuts each phone's campaign short, so the tree is
	// shallow and offspring counts are small.
	fmt.Println("Transmission tree: Virus 1 under blacklist@10 vs baseline")
	for _, scenario := range []struct {
		name      string
		responses []mms.ResponseFactory
	}{
		{"baseline", nil},
		{"blacklist@10", []mms.ResponseFactory{response.NewBlacklist(10)}},
	} {
		cfg := core.Default(virus.Virus1())
		cfg.Responses = scenario.responses
		var tree mms.InfectionTree
		cfg.PostRun = func(set *mms.ShardSet) { tree = set.BuildInfectionTree() }
		res, err := core.RunOnce(cfg, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s infected=%3d chainDepth=%2d meanOffspring=%.2f\n",
			scenario.name, res.FinalInfected, tree.MaxDepth, tree.MeanOffspring)
	}
}
