package mms

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/rng"
)

// testTopology builds the CSR over n phones with the given links.
func testTopology(t testing.TB, n int, links ...[2]int) *graph.CSR {
	t.Helper()
	b, err := graph.NewCSRBuilder(n, len(links))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range links {
		if err := b.AddEdge(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// pathLinks returns the links of the path 0-1-...-(n-1).
func pathLinks(n int) [][2]int {
	links := make([][2]int, 0, n)
	for i := 0; i+1 < n; i++ {
		links = append(links, [2]int{i, i + 1})
	}
	return links
}

// buildNet creates a small fully-vulnerable network over a path graph.
func buildNet(t *testing.T, n int, cfg Config) (*Network, *des.Simulation) {
	t.Helper()
	g := testTopology(t, n, pathLinks(n)...)
	vulnerable := make([]bool, n)
	for i := range vulnerable {
		vulnerable[i] = true
	}
	sim := des.New()
	net, err := NewCSR(g, vulnerable, cfg, sim, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return net, sim
}

func instantConfig() Config {
	return Config{
		DeliveryDelay:          rng.Constant{V: time.Second},
		ReadDelay:              rng.Constant{V: time.Second},
		AcceptanceFactor:       2, // first message always accepted
		GatewayDetectThreshold: 1000,
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 3)
	sim := des.New()
	src := rng.New(1)
	good := instantConfig()
	vuln := []bool{true, true, true}

	if _, err := NewCSR(nil, vuln, good, sim, src); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewCSR(g, vuln, good, nil, src); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewCSR(g, vuln, good, sim, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewCSR(g, []bool{true}, good, sim, src); err == nil {
		t.Error("mask length mismatch accepted")
	}
	bad := good
	bad.DeliveryDelay = nil
	if _, err := NewCSR(g, vuln, bad, sim, src); err == nil {
		t.Error("nil delivery delay accepted")
	}
	bad = good
	bad.ReadDelay = nil
	if _, err := NewCSR(g, vuln, bad, sim, src); err == nil {
		t.Error("nil read delay accepted")
	}
	bad = good
	bad.AcceptanceFactor = 0
	if _, err := NewCSR(g, vuln, bad, sim, src); err == nil {
		t.Error("zero acceptance factor accepted")
	}
	bad = good
	bad.AcceptanceFactor = 3
	if _, err := NewCSR(g, vuln, bad, sim, src); err == nil {
		t.Error("oversized acceptance factor accepted")
	}
}

func TestVulnerabilityMask(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 4)
	net, err := NewCSR(g, []bool{true, false, true, false}, instantConfig(), des.New(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if net.State(0) != StateSusceptible || net.State(1) != StateNotVulnerable {
		t.Error("vulnerability mask not applied")
	}
	if got := net.SusceptibleCount(); got != 2 {
		t.Errorf("SusceptibleCount = %d, want 2", got)
	}
	if net.State(99) != StateNotVulnerable || net.State(-1) != StateNotVulnerable {
		t.Error("out-of-range phones should read as not-vulnerable")
	}
	if net.Contacts(99) != nil || net.Contacts(-1) != nil {
		t.Error("out-of-range phones should have no contacts")
	}
}

func TestSeedInfection(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 3, instantConfig())
	var events []PhoneID
	net.OnInfection(func(id PhoneID, at time.Duration) {
		events = append(events, id)
	})
	if err := net.SeedInfection(1); err != nil {
		t.Fatal(err)
	}
	if net.InfectedCount() != 1 {
		t.Errorf("InfectedCount = %d", net.InfectedCount())
	}
	if len(events) != 1 || events[0] != 1 {
		t.Errorf("infection events = %v", events)
	}
	if err := net.SeedInfection(1); err == nil {
		t.Error("double seed accepted")
	}
	if err := net.SeedInfection(99); err == nil {
		t.Error("out-of-range seed accepted")
	}
}

func TestSendDeliverReadInfect(t *testing.T) {
	t.Parallel()

	net, sim := buildNet(t, 3, instantConfig())
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeSent || res.Delivered != 1 {
		t.Fatalf("SendResult = %+v", res)
	}
	sim.Run()
	// AF=2: first read accepts with certainty -> infection at ~2s.
	if net.InfectedCount() != 2 {
		t.Errorf("InfectedCount = %d, want 2", net.InfectedCount())
	}
	if got := net.State(1); got != StateInfected {
		t.Errorf("target state = %v", got)
	}
	if got := net.InfectedAt(1); got != 2*time.Second {
		t.Errorf("InfectedAt = %v, want 2s (1s delivery + 1s read)", got)
	}
	m := net.Metrics()
	if m.MessagesSent != 1 || m.Deliveries != 1 || m.Reads != 1 || m.Acceptances != 1 || m.Infections != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestSendSkipsInvalidSelfAndOutOfRange(t *testing.T) {
	t.Parallel()

	net, sim := buildNet(t, 3, instantConfig())
	res, err := net.Send(0, []Target{
		InvalidTarget(),
		ValidTarget(0),  // self
		ValidTarget(50), // out of range
		ValidTarget(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", res.Delivered)
	}
	sim.Run()
	if net.Metrics().Deliveries != 1 {
		t.Errorf("Deliveries = %d, want 1", net.Metrics().Deliveries)
	}
}

func TestSendFromInvalidPhone(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 3, instantConfig())
	if _, err := net.Send(77, nil); err == nil {
		t.Error("send from out-of-range phone accepted")
	}
}

func TestAcceptanceHalving(t *testing.T) {
	t.Parallel()

	// With AF = 0.468 the probabilities halve per received message; with a
	// large message count the infection probability approaches 0.40. Send
	// many messages to one phone and check the empirical acceptance.
	const trials = 4000
	infectedTrials := 0
	for trial := 0; trial < trials; trial++ {
		g := testTopology(t, 2)
		sim := des.New()
		cfg := instantConfig()
		cfg.AcceptanceFactor = PaperAcceptanceFactor
		// The messages arrive from one sender within a day; allow every
		// one a consent trial to exercise the full halving sequence.
		cfg.AllowDuplicateTrials = true
		net, err := NewCSR(g, []bool{true, true}, cfg, sim, rng.New(uint64(trial)+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
		if net.State(1) == StateInfected {
			infectedTrials++
		}
	}
	frac := float64(infectedTrials) / trials
	if frac < 0.37 || frac > 0.43 {
		t.Errorf("eventual infection fraction = %v, want ~0.40", frac)
	}
}

func TestNotVulnerablePhoneNeverInfected(t *testing.T) {
	t.Parallel()

	g := testTopology(t, 2)
	sim := des.New()
	net, err := NewCSR(g, []bool{true, false}, instantConfig(), sim, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if net.State(1) != StateNotVulnerable {
		t.Errorf("not-vulnerable phone became %v", net.State(1))
	}
	if net.Metrics().Acceptances == 0 {
		t.Error("user never accepted (AF=2 should accept first read)")
	}
}

func TestPatchImmunizesAndStopsInfection(t *testing.T) {
	t.Parallel()

	net, sim := buildNet(t, 3, instantConfig())
	var patched []PhoneID
	net.OnPatched(func(id PhoneID, at time.Duration) { patched = append(patched, id) })

	if err := net.Patch(1); err != nil {
		t.Fatal(err)
	}
	if net.State(1) != StateImmune {
		t.Errorf("patched susceptible phone state = %v, want immune", net.State(1))
	}
	if len(patched) != 1 || patched[0] != 1 {
		t.Errorf("patch events = %v", patched)
	}
	// Patch is idempotent.
	if err := net.Patch(1); err != nil {
		t.Fatal(err)
	}
	if len(patched) != 1 {
		t.Error("second patch fired callback")
	}
	if err := net.Patch(55); err == nil {
		t.Error("out-of-range patch accepted")
	}

	// Messages to the immune phone never infect it.
	if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if net.State(1) != StateImmune {
		t.Errorf("immune phone became %v", net.State(1))
	}
}

func TestPatchInfectedPhoneKeepsState(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 2, instantConfig())
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	if err := net.Patch(0); err != nil {
		t.Fatal(err)
	}
	if net.State(0) != StateInfected || !net.Patched(0) {
		t.Errorf("patched infected phone: state=%v patched=%v", net.State(0), net.Patched(0))
	}
}

type blockController struct{ name string }

func (b blockController) Name() string { return b.name }
func (b blockController) OnSendAttempt(PhoneID, time.Duration) SendVerdict {
	return SendVerdict{Action: ActionBlock}
}
func (b blockController) OnSent(PhoneID, time.Duration, int) {}

type deferController struct{ retry time.Duration }

func (d deferController) Name() string { return "defer" }
func (d deferController) OnSendAttempt(_ PhoneID, now time.Duration) SendVerdict {
	return SendVerdict{Action: ActionDefer, RetryAt: d.retry}
}
func (d deferController) OnSent(PhoneID, time.Duration, int) {}

type countController struct {
	attempts int
	sent     int
}

func (c *countController) Name() string { return "count" }
func (c *countController) OnSendAttempt(PhoneID, time.Duration) SendVerdict {
	c.attempts++
	return SendVerdict{Action: ActionAllow}
}
func (c *countController) OnSent(_ PhoneID, _ time.Duration, k int) { c.sent += k }

func TestControllerBlock(t *testing.T) {
	t.Parallel()

	net, sim := buildNet(t, 2, instantConfig())
	net.AddController(blockController{name: "blocker"})
	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeBlocked {
		t.Errorf("Outcome = %v, want blocked", res.Outcome)
	}
	sim.Run()
	if net.Metrics().MessagesBlocked != 1 || net.Metrics().MessagesSent != 0 {
		t.Errorf("metrics = %+v", net.Metrics())
	}
}

func TestControllerDefer(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 2, instantConfig())
	net.AddController(deferController{retry: 5 * time.Minute})
	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeDeferred || res.RetryAt != 5*time.Minute {
		t.Errorf("result = %+v", res)
	}
}

func TestControllerDeferPastRetryClamped(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 2, instantConfig())
	net.AddController(deferController{retry: 0})
	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RetryAt <= 0 {
		t.Errorf("RetryAt = %v, want future time", res.RetryAt)
	}
}

func TestControllerObservesSends(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 3, instantConfig())
	ctl := &countController{}
	net.AddController(ctl)
	if _, err := net.Send(0, []Target{ValidTarget(1), ValidTarget(2)}); err != nil {
		t.Fatal(err)
	}
	if ctl.attempts != 1 || ctl.sent != 2 {
		t.Errorf("controller saw attempts=%d sent=%d", ctl.attempts, ctl.sent)
	}
}

type dropFilter struct{}

func (dropFilter) Name() string { return "drop-all" }
func (dropFilter) Inspect(PhoneID, int, time.Duration) FilterVerdict {
	return VerdictDrop
}

func TestGatewayFilterDrops(t *testing.T) {
	t.Parallel()

	net, sim := buildNet(t, 2, instantConfig())
	net.Gateway().AddFilter(dropFilter{})
	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeSent || !res.GatewayDropped {
		t.Errorf("result = %+v", res)
	}
	sim.Run()
	if net.Metrics().Deliveries != 0 {
		t.Error("dropped message was delivered")
	}
	if net.Gateway().Dropped() != 1 {
		t.Errorf("gateway dropped = %d", net.Gateway().Dropped())
	}
}

func TestGatewayDetectionThreshold(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.GatewayDetectThreshold = 3
	net, _ := buildNet(t, 2, cfg)
	var detectedAt []time.Duration
	net.Gateway().OnVirusDetected(func(at time.Duration) {
		detectedAt = append(detectedAt, at)
	})
	for i := 0; i < 5; i++ {
		if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(detectedAt) != 1 {
		t.Fatalf("detection fired %d times, want 1", len(detectedAt))
	}
	if at, ok := net.Gateway().Detected(); !ok || at != detectedAt[0] {
		t.Error("Detected() disagrees with callback")
	}
	// Late subscriber fires immediately.
	fired := false
	net.Gateway().OnVirusDetected(func(time.Duration) { fired = true })
	if !fired {
		t.Error("late detection subscriber not fired")
	}
	if net.Gateway().Observed() != 5 {
		t.Errorf("Observed = %d, want 5", net.Gateway().Observed())
	}
}

func TestSetAcceptanceFactor(t *testing.T) {
	t.Parallel()

	net, _ := buildNet(t, 2, instantConfig())
	if err := net.SetAcceptanceFactor(0.2); err != nil {
		t.Fatal(err)
	}
	if net.AcceptanceFactor() != 0.2 {
		t.Errorf("AcceptanceFactor = %v", net.AcceptanceFactor())
	}
	if err := net.SetAcceptanceFactor(0); err == nil {
		t.Error("AF=0 accepted")
	}
	if err := net.SetAcceptanceFactor(2.5); err == nil {
		t.Error("AF=2.5 accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	t.Parallel()

	run := func() (int, uint64) {
		g := testTopology(t, 20, pathLinks(20)...)
		vuln := make([]bool, 20)
		for i := range vuln {
			vuln[i] = true
		}
		sim := des.New()
		cfg := Config{
			DeliveryDelay:          rng.Exponential{MeanD: time.Minute},
			ReadDelay:              rng.Exponential{MeanD: 10 * time.Minute},
			AcceptanceFactor:       PaperAcceptanceFactor,
			GatewayDetectThreshold: 5,
		}
		net, err := NewCSR(g, vuln, cfg, sim, rng.New(777))
		if err != nil {
			t.Fatal(err)
		}
		// Simple hand-rolled propagation: each infection sends to contacts.
		net.OnInfection(func(id PhoneID, at time.Duration) {
			for _, c := range net.Contacts(id) {
				target := PhoneID(c)
				if _, err := sim.ScheduleArgAfter(time.Minute, func(*des.Simulation, uint64) {
					_, _ = net.Send(id, []Target{ValidTarget(target)})
				}, 0); err != nil {
					t.Error(err)
				}
			}
		})
		if err := net.SeedInfection(0); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(24 * time.Hour)
		return net.InfectedCount(), net.Metrics().MessagesSent
	}
	i1, s1 := run()
	i2, s2 := run()
	if i1 != i2 || s1 != s2 {
		t.Errorf("replay diverged: (%d,%d) vs (%d,%d)", i1, s1, i2, s2)
	}
}
