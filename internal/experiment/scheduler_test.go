package experiment

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
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

// RunFigure forwards the scheduler's salvage contract: the partial
// FigureResult arrives alongside the joined error instead of being
// discarded.
func TestRunFigurePartialResult(t *testing.T) {
	t.Parallel()
	fig := Figure1(Scale{Factor: 20})
	fig.Series[0].Config.Population = -1
	fr, err := RunFigure(fig, core.Options{Replications: 2, GridPoints: 20})
	if err == nil {
		t.Fatal("invalid series reported success")
	}
	if fr == nil {
		t.Fatal("partial figure result discarded")
	}
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

// An invalid config must fail with RunContext's single-error shape, not one
// copy per replication.
func TestSubmitSeriesConfigErrorShape(t *testing.T) {
	t.Parallel()
	p := pool.New(2)
	defer p.Close()
	cfg := Scale{Factor: 20}.paperConfig(virus.Virus1())
	cfg.Population = -1
	j := submitSeries(p, context.Background(), nil, cfg, core.Options{Replications: 4})
	if _, err := j.wait(); err == nil {
		t.Fatal("invalid config accepted")
	}

	quorum := submitSeries(p, context.Background(), nil, Scale{Factor: 20}.paperConfig(virus.Virus1()),
		core.Options{Replications: 2, MinReplications: 5})
	if _, err := quorum.wait(); err == nil || !strings.Contains(err.Error(), "salvage quorum") {
		t.Fatalf("quorum > replications accepted: %v", err)
	}
}
