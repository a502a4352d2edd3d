package experiment

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/virus"
)

// sweepCSV runs the full study matrix through RunSweep and returns each
// figure's CSV bytes, keyed by figure ID.
func sweepCSV(t *testing.T, so SweepOptions) map[string][]byte {
	t.Helper()
	figs := AllStudies(Scale{Factor: 20})
	opts := core.Options{Replications: 2, GridPoints: 20, BaseSeed: 1}
	sr, err := RunSweep(context.Background(), figs, opts, so)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(sr.Figures))
	for _, fr := range sr.Figures {
		var buf bytes.Buffer
		if err := fr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		out[fr.Figure.ID] = buf.Bytes()
	}
	return out
}

// The scheduler's core promise: output bytes are identical for any worker
// count, cache on or off. Workers only race over which unit runs when;
// assembly is always in definition and seed order.
func TestSweepDeterministicAcrossJobsAndCache(t *testing.T) {
	t.Parallel()
	serial := sweepCSV(t, SweepOptions{Jobs: 1})
	variants := map[string]SweepOptions{
		"jobs=8 cached": {Jobs: 8, Cache: NewReplicationCache()},
		"jobs=3 cached": {Jobs: 3, Cache: NewReplicationCache()},
		"jobs=5":        {Jobs: 5},
	}
	for name, so := range variants {
		got := sweepCSV(t, so)
		if len(got) != len(serial) {
			t.Fatalf("%s: %d figures, serial produced %d", name, len(got), len(serial))
		}
		for id, want := range serial {
			if !bytes.Equal(got[id], want) {
				t.Errorf("%s: %s CSV differs from serial run", name, id)
			}
		}
	}
}

// A failing series must not discard the rest of the sweep: surviving
// series and figures are returned alongside the errors.Join of the
// failures, in the result slots matching the request order.
func TestSweepSalvagesPartialFailure(t *testing.T) {
	t.Parallel()
	good := Figure1(Scale{Factor: 20})
	bad := Figure1(Scale{Factor: 20})
	bad.ID = "broken"
	bad.Series[1].Config.Population = -1

	opts := core.Options{Replications: 2, GridPoints: 20, BaseSeed: 1}
	sr, err := RunSweep(context.Background(), []Figure{bad, good}, opts, SweepOptions{Jobs: 2})
	if err == nil {
		t.Fatal("sweep with an invalid series reported success")
	}
	if sr == nil {
		t.Fatal("partial results discarded")
	}
	if sr.FigureErrs[0] == nil || sr.FigureErrs[1] != nil {
		t.Fatalf("figure errors misplaced: %v", sr.FigureErrs)
	}
	if !strings.Contains(sr.FigureErrs[0].Error(), bad.Series[1].Label) {
		t.Errorf("error %q does not name the failed series %q", sr.FigureErrs[0], bad.Series[1].Label)
	}
	if got, want := len(sr.Figures[0].Series), len(bad.Series)-1; got != want {
		t.Errorf("broken figure kept %d series, want the %d survivors", got, want)
	}
	if got, want := len(sr.Figures[1].Series), len(good.Series); got != want {
		t.Errorf("clean figure kept %d series, want %d", got, want)
	}
}

// A one-figure sweep hands back its partial FigureResult alongside the
// joined error instead of discarding it, and the failed series is absent.
func TestRunFigurePartialResult(t *testing.T) {
	t.Parallel()
	fig := Figure1(Scale{Factor: 20})
	fig.Series[0].Config.Population = -1
	sr, err := RunSweep(context.Background(), []Figure{fig}, core.Options{Replications: 2, GridPoints: 20}, SweepOptions{})
	if err == nil {
		t.Fatal("invalid series reported success")
	}
	if sr == nil || len(sr.Figures) != 1 || sr.Figures[0] == nil {
		t.Fatal("partial figure result discarded")
	}
	fr := sr.Figures[0]
	if got, want := len(fr.Series), len(fig.Series)-1; got != want {
		t.Errorf("kept %d series, want the %d survivors", got, want)
	}
	if _, ok := fr.SeriesByLabel(fig.Series[0].Label); ok {
		t.Errorf("failed series %q present in the partial result", fig.Series[0].Label)
	}
}

// A cancelled context must surface as series failures, not hang the pool.
func TestSweepCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sr, err := RunSweep(ctx, []Figure{Figure1(Scale{Factor: 20})}, core.Options{Replications: 2, GridPoints: 20}, SweepOptions{Jobs: 2})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if sr == nil || sr.FigureErrs[0] == nil {
		t.Fatal("cancellation did not land in the figure errors")
	}
	if !errors.Is(sr.FigureErrs[0], context.Canceled) {
		t.Errorf("figure error %v does not wrap context.Canceled", sr.FigureErrs[0])
	}
}

// TestRunMatchesOneSeriesSweep pins that core.Run and a one-series sweep,
// uncached, return the same RunSet for the same config and options: seeds,
// per-replication results, band and recorded failures, including a
// replication that panics under a salvage quorum that still holds.
func TestRunMatchesOneSeriesSweep(t *testing.T) {
	t.Parallel()
	// panicFirst returns a PostRun hook that panics in the first
	// replication to reach it; Parallelism 1 makes that replication 0.
	panicFirst := func() func(*mms.ShardSet) {
		var fired atomic.Bool
		return func(*mms.ShardSet) {
			if fired.CompareAndSwap(false, true) {
				panic("injected replication failure")
			}
		}
	}
	cases := []struct {
		name    string
		postRun func() func(*mms.ShardSet)
		opts    core.Options
	}{
		{"clean", nil, core.Options{Replications: 3, BaseSeed: 5, GridPoints: 20, Parallelism: 2}},
		{"salvaged panic", panicFirst, core.Options{Replications: 4, GridPoints: 20, Parallelism: 1, MinReplications: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCfg := Scale{Factor: 20}.paperConfig(virus.Virus3())
			figCfg := runCfg
			if tc.postRun != nil {
				runCfg.PostRun, figCfg.PostRun = tc.postRun(), tc.postRun()
			}
			want, err := core.Run(runCfg, tc.opts)
			if err != nil {
				t.Fatalf("core.Run: %v", err)
			}
			fr := runFigure(t, Figure{ID: "match", Series: []Series{{Label: "only", Config: figCfg}}}, tc.opts, nil)
			got := fr.Series[0].RunSet
			if !reflect.DeepEqual(got.Seeds, want.Seeds) {
				t.Errorf("seeds %v, core.Run has %v", got.Seeds, want.Seeds)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Error("per-replication results differ from core.Run's")
			}
			if !reflect.DeepEqual(got.Band, want.Band) {
				t.Error("band differs from core.Run's")
			}
			if len(got.Failed) != len(want.Failed) {
				t.Fatalf("%d recorded failures, core.Run has %d", len(got.Failed), len(want.Failed))
			}
			for i, g := range got.Failed {
				w := want.Failed[i]
				if g.Replication != w.Replication || g.Seed != w.Seed || g.Err.Error() != w.Err.Error() ||
					(len(g.Stack) == 0) != (len(w.Stack) == 0) {
					t.Errorf("failure %d is %v, core.Run has %v", i, g, w)
				}
			}
			if tc.opts.MinReplications > 0 && len(want.Failed) == 0 {
				t.Error("the salvage case recorded no failure")
			}
		})
	}
}

// TestSweepBuildsEachTopologyOnce runs S series × R seeds that share one
// graph config, uncached so every replication simulates: the sweep's
// topology table builds R topologies, not S×R, and the CSVs match a sweep
// that builds a topology for every replication.
func TestSweepBuildsEachTopologyOnce(t *testing.T) {
	t.Parallel()
	fig := Figure1(Scale{Factor: 20})
	for _, s := range fig.Series[1:] {
		c, c0 := s.Config, fig.Series[0].Config
		if c.Population != c0.Population || c.Graph != c0.Graph {
			t.Fatalf("series %q does not share series 0's graph", s.Label)
		}
	}
	const reps = 3
	opts := core.Options{Replications: reps, GridPoints: 20, BaseSeed: 1}
	csv := func(topos *core.TopologyTable) []byte {
		sr, err := runSweep(context.Background(), []Figure{fig}, opts, SweepOptions{Jobs: 4}, topos)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sr.Figures[0].WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	topos := core.NewTopologyTable()
	shared := csv(topos)
	if n := topos.Builds(); n != reps {
		t.Errorf("%d series × %d seeds built %d topologies, want %d", len(fig.Series), reps, n, reps)
	}
	if !bytes.Equal(shared, csv(nil)) {
		t.Error("sweep CSV with a shared topology table differs from one building every topology")
	}
}
