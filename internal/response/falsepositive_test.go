package response

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

// legitNet builds a network with background legitimate traffic at the
// given mean interval and no virus at all.
func legitNet(t *testing.T, n int, interval time.Duration, seed uint64) (*mms.Network, *des.Simulation) {
	t.Helper()
	b, err := graph.NewCSRBuilder(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	vuln := make([]bool, n)
	for i := range vuln {
		vuln[i] = true
	}
	cfg := mms.Config{
		DeliveryDelay:          rng.Constant{V: time.Second},
		ReadDelay:              rng.Constant{V: time.Second},
		AcceptanceFactor:       mms.PaperAcceptanceFactor,
		GatewayDetectThreshold: 1 << 30,
		LegitSendInterval:      rng.Exponential{MeanD: interval},
	}
	sim := des.New()
	net, err := mms.NewCSR(g, vuln, cfg, sim, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, sim
}

func TestLegitTrafficGenerated(t *testing.T) {
	t.Parallel()

	net, sim := legitNet(t, 20, 2*time.Hour, 1)
	sim.RunUntil(48 * time.Hour)
	// 20 phones x ~24 messages each over 48h.
	sent := net.Metrics().LegitSent
	if sent < 300 || sent > 700 {
		t.Errorf("legit messages = %d, want ~480", sent)
	}
}

func TestMonitorFalsePositivesOnLegitTraffic(t *testing.T) {
	t.Parallel()

	// Chatty users (mean 10 min between messages) against the default
	// 2-per-30-minutes threshold: many uninfected phones get flagged.
	net, sim := legitNet(t, 50, 10*time.Minute, 2)
	r := NewMonitor(15 * time.Minute)()
	mon, ok := r.(*Monitor)
	if !ok {
		t.Fatal("factory did not produce *Monitor")
	}
	if err := net.AttachResponse(mon, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(24 * time.Hour)
	falsePositives := 0
	for _, p := range mon.FlaggedPhones() {
		if net.State(p) != mms.StateInfected {
			falsePositives++
		}
	}
	if falsePositives == 0 {
		t.Error("chatty legit traffic produced no false positives at the default threshold")
	}
}

func TestMonitorNoFalsePositivesOnQuietTraffic(t *testing.T) {
	t.Parallel()

	// Ordinary users (mean 4 h between messages) almost never send 3 in
	// half an hour; false positives should be rare.
	net, sim := legitNet(t, 50, 4*time.Hour, 3)
	r := NewMonitor(15 * time.Minute)()
	mon, ok := r.(*Monitor)
	if !ok {
		t.Fatal("factory did not produce *Monitor")
	}
	if err := net.AttachResponse(mon, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(24 * time.Hour)
	if fp := len(mon.FlaggedPhones()); fp > 5 {
		t.Errorf("quiet legit traffic flagged %d of 50 phones", fp)
	}
	_ = net
}

func TestBlacklistIgnoresLegitTraffic(t *testing.T) {
	t.Parallel()

	// The blacklist counts only suspected infected messages, so heavy
	// legitimate traffic must never trip it.
	net, sim := legitNet(t, 20, 5*time.Minute, 4)
	r := NewBlacklist(10)()
	bl, ok := r.(*Blacklist)
	if !ok {
		t.Fatal("factory did not produce *Blacklist")
	}
	if err := net.AttachResponse(bl, nil); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(48 * time.Hour)
	for i := 0; i < net.N(); i++ {
		if bl.Blacklisted(mms.PhoneID(i)) {
			t.Fatalf("phone %d blacklisted by legitimate traffic", i)
		}
	}
}
