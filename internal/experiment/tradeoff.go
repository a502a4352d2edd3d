package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// Section 3.3 states the monitoring/blacklisting threshold "should ideally
// be as high as possible to avoid false positive activation of the
// response, but ... low enough to effectively restrict the dissemination of
// infected messages". The paper never measures the false-positive side;
// this study does, by adding background legitimate traffic and sweeping the
// monitoring threshold against Virus 3.

// TradeoffPoint is one threshold level of the monitoring trade-off study.
type TradeoffPoint struct {
	// Threshold is the message count per window that flags a phone.
	Threshold int
	// FinalInfected is the mean final infection count (containment; lower
	// is better).
	FinalInfected float64
	// FalsePositives is the mean number of never-infected phones flagged
	// per replication (lower is better).
	FalsePositives float64
	// TruePositives is the mean number of infected phones flagged.
	TruePositives float64
}

// TradeoffConfig parameterizes the study.
type TradeoffConfig struct {
	// Scale shrinks the population for tests.
	Scale Scale
	// Thresholds are the monitor thresholds to sweep (per Window).
	Thresholds []int
	// Window is the monitoring observation window.
	Window time.Duration
	// ForcedWait is the penalty applied to flagged phones.
	ForcedWait time.Duration
	// LegitMeanInterval is the mean time between a user's legitimate
	// messages.
	LegitMeanInterval time.Duration
}

// DefaultTradeoffConfig sweeps thresholds 1..8 per 30 minutes against
// moderately chatty users (mean 25 minutes between messages).
func DefaultTradeoffConfig(s Scale) TradeoffConfig {
	return TradeoffConfig{
		Scale:             s,
		Thresholds:        []int{1, 2, 4, 8},
		Window:            30 * time.Minute,
		ForcedWait:        15 * time.Minute,
		LegitMeanInterval: 25 * time.Minute,
	}
}

// tradeoffCounts accumulates flag classifications across the replications
// of one threshold level. PostRun hooks run concurrently under the sweep
// scheduler, so the totals are mutex-guarded; the counts are integers, so
// the accumulated sums are exact regardless of completion order.
type tradeoffCounts struct {
	mu                sync.Mutex
	falsePos, truePos int
}

// collect is the PostRun hook: it pairs each replication's monitor with
// its shard set at the horizon and classifies every flagged phone.
func (c *tradeoffCounts) collect(set *mms.ShardSet) {
	falsePos, truePos := 0, 0
	for _, r := range set.Responses() {
		m, ok := r.(*response.Monitor)
		if !ok {
			continue
		}
		for _, p := range m.FlaggedPhones() {
			if set.State(p) == mms.StateInfected {
				truePos++
			} else {
				falsePos++
			}
		}
	}
	c.mu.Lock()
	c.falsePos += falsePos
	c.truePos += truePos
	c.mu.Unlock()
}

// RunMonitorTradeoff sweeps the monitoring threshold and measures both the
// containment of Virus 3 and the false-positive flags caused by legitimate
// traffic. The thresholds run as the series of one figure on one worker
// pool (opts.Parallelism wide); each replication gets a fresh monitor
// through the ordinary factory path, and a PostRun hook pairs it with its
// shard set at the horizon via mms.ShardSet.Responses. The PostRun hook
// makes these configs uncacheable by design — every replication measures
// its own mechanism state, so memoizing would be wrong.
func RunMonitorTradeoff(tc TradeoffConfig, opts core.Options) ([]TradeoffPoint, error) {
	if len(tc.Thresholds) == 0 {
		return nil, fmt.Errorf("experiment: tradeoff needs thresholds")
	}
	if tc.Window <= 0 || tc.ForcedWait <= 0 || tc.LegitMeanInterval <= 0 {
		return nil, fmt.Errorf("experiment: tradeoff timings must be positive")
	}
	fig := Figure{ID: "monitor-tradeoff", Title: "Monitoring threshold trade-off (Virus 3)"}
	counts := make([]tradeoffCounts, len(tc.Thresholds))
	for ti, threshold := range tc.Thresholds {
		cfg := tc.Scale.paperConfig(virus.Virus3())
		cfg.Network.LegitSendInterval = rng.Exponential{MeanD: tc.LegitMeanInterval}
		cfg.Responses = []mms.ResponseFactory{
			response.NewMonitorFull(tc.Window, threshold, tc.ForcedWait),
		}
		cfg.PostRun = counts[ti].collect
		fig.Series = append(fig.Series, Series{Label: fmt.Sprintf("threshold %d", threshold), Config: cfg})
	}
	sr, err := RunSweep(context.TODO(), []Figure{fig}, opts, SweepOptions{Jobs: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	fr := sr.Figures[0]

	points := make([]TradeoffPoint, 0, len(tc.Thresholds))
	for ti, threshold := range tc.Thresholds {
		s := fr.Series[ti]
		n := float64(len(s.RunSet.Results))
		points = append(points, TradeoffPoint{
			Threshold:      threshold,
			FinalInfected:  s.FinalMean,
			FalsePositives: float64(counts[ti].falsePos) / n,
			TruePositives:  float64(counts[ti].truePos) / n,
		})
	}
	return points, nil
}
