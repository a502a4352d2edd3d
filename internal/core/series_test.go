package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/virus"
)

// An invalid config or quorum must fail the series once, with RunContext's
// single-error shape, and enqueue no replication.
func TestSubmitSeriesConfigErrorShape(t *testing.T) {
	t.Parallel()
	p := pool.New(2)
	defer p.Close()
	never := func(context.Context, Config, int, uint64) (*Result, *ReplicationError) {
		t.Error("a replication ran for a rejected series")
		return nil, nil
	}
	cfg := smallConfig(virus.Virus1())
	cfg.Population = -1
	if _, err := SubmitSeries(p, context.Background(), cfg, Options{Replications: 4}, never).Wait(); err == nil {
		t.Fatal("invalid config accepted")
	}

	quorum := SubmitSeries(p, context.Background(), smallConfig(virus.Virus1()),
		Options{Replications: 2, MinReplications: 5}, never)
	if _, err := quorum.Wait(); err == nil || !strings.Contains(err.Error(), "salvage quorum") {
		t.Fatalf("quorum > replications accepted: %v", err)
	}
}
