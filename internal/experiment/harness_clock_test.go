package experiment

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/virus"
)

// TestElapsedUsesInjectedClock pins the harness's clock injection: Elapsed
// is measured through the package clock, so a deterministic clock yields a
// deterministic Elapsed (and sim results never depend on the wall clock).
func TestElapsedUsesInjectedClock(t *testing.T) {
	orig := timeNow
	t.Cleanup(func() { timeNow = orig })
	// RunSweep reads the clock at its start and again when it assembles
	// the figure, 3s apart.
	timeNow = clock.Stepped(time.Unix(0, 0).UTC(), 3*time.Second)

	cfg := Scale{Factor: 20}.paperConfig(virus.Virus3())
	cfg.Horizon = time.Hour
	fig := Figure{
		ID:     "clock-test",
		Title:  "clock",
		Series: []Series{{Label: "baseline", Config: cfg}},
	}
	fr := runFigure(t, fig, core.Options{Replications: 1, GridPoints: 5}, nil)
	if fr.Elapsed != 3*time.Second {
		t.Fatalf("Elapsed = %v through stepped clock, want 3s", fr.Elapsed)
	}
}
