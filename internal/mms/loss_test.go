package mms

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/rng"
)

func TestDeliveryLossValidation(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 2)
	cfg := instantConfig()
	cfg.DeliveryLossProb = -0.1
	if _, err := NewCSR(g, []bool{true, true}, cfg, des.New(), rng.New(1)); err == nil {
		t.Error("negative loss accepted")
	}
	cfg.DeliveryLossProb = 1
	if _, err := NewCSR(g, []bool{true, true}, cfg, des.New(), rng.New(1)); err == nil {
		t.Error("loss = 1 accepted")
	}
}

func TestDeliveryLossFraction(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 2)
	cfg := instantConfig()
	cfg.DeliveryLossProb = 0.3
	cfg.AllowDuplicateTrials = true
	sim := des.New()
	net, err := NewCSR(g, []bool{true, true}, cfg, sim, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	const sends = 20000
	for i := 0; i < sends; i++ {
		if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	m := net.Metrics()
	if m.DeliveryLost+m.Deliveries != sends {
		t.Fatalf("lost %d + delivered %d != %d sent", m.DeliveryLost, m.Deliveries, sends)
	}
	frac := float64(m.DeliveryLost) / sends
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("loss fraction = %v, want ~0.3", frac)
	}
}

func TestDeliveryLossZeroByDefault(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 2, instantConfig())
	for i := 0; i < 100; i++ {
		if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if net.Metrics().DeliveryLost != 0 {
		t.Errorf("default config lost %d copies", net.Metrics().DeliveryLost)
	}
}

// Property: regardless of the loss setting, sent copies split exactly into
// lost + delivered (conservation of copies).
func TestQuickCopyConservation(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 3)
	f := func(seed uint32, lossPct uint8, sends uint8) bool {
		cfg := Config{
			DeliveryDelay:          rng.Constant{V: time.Second},
			ReadDelay:              rng.Constant{V: time.Second},
			AcceptanceFactor:       1,
			GatewayDetectThreshold: 1 << 30,
			DeliveryLossProb:       float64(lossPct%90) / 100,
			AllowDuplicateTrials:   true,
		}
		sim := des.New()
		net, err := NewCSR(g, []bool{true, true, true}, cfg, sim, rng.New(uint64(seed)))
		if err != nil {
			return false
		}
		n := int(sends%50) + 1
		for i := 0; i < n; i++ {
			if _, err := net.Send(0, []Target{ValidTarget(1), ValidTarget(2)}); err != nil {
				return false
			}
		}
		m := net.Metrics()
		return m.DeliveryLost+m.Deliveries == uint64(2*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLegitTrafficZeroIntervalDoesNotWedge(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 3)
	cfg := instantConfig()
	cfg.LegitSendInterval = rng.Constant{V: 0} // degenerate
	sim := des.New()
	net, err := NewCSR(g, []bool{true, true, true}, cfg, sim, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(time.Minute)
	// The one-second floor bounds the volume: 3 phones x 60 events.
	if sent := net.Metrics().LegitSent; sent > 200 {
		t.Errorf("degenerate interval produced %d messages in a minute", sent)
	}
}
