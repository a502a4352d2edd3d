package virus

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

func completeNet(t *testing.T, n int, cfg mms.Config, seed uint64) (*mms.Network, *des.Simulation) {
	t.Helper()
	b, err := graph.NewCSRBuilder(n, n*(n-1)/2)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	vuln := make([]bool, n)
	for i := range vuln {
		vuln[i] = true
	}
	sim := des.New()
	net, err := mms.NewCSR(g, vuln, cfg, sim, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, sim
}

func fastNetConfig() mms.Config {
	return mms.Config{
		DeliveryDelay:          rng.Constant{V: time.Second},
		ReadDelay:              rng.Constant{V: time.Second},
		AcceptanceFactor:       mms.PaperAcceptanceFactor,
		GatewayDetectThreshold: 1 << 30, // effectively never detect
	}
}

func TestScenarioConfigsValid(t *testing.T) {
	t.Parallel()

	for _, cfg := range Scenarios() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	base := Virus1()
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty name", func(c *Config) { c.Name = "" }},
		{"bad targeting", func(c *Config) { c.Targeting = 0 }},
		{"bad contact order", func(c *Config) { c.ContactOrder = 0 }},
		{"zero recipients", func(c *Config) { c.RecipientsPerMessage = 0 }},
		{"negative min wait", func(c *Config) { c.MinWait = -time.Second }},
		{"negative dormancy", func(c *Config) { c.Dormancy = -time.Second }},
		{"bad quota kind", func(c *Config) { c.Quota = 0 }},
		{"reboot quota without interval", func(c *Config) { c.RebootInterval = nil }},
		{"zero per-reboot quota", func(c *Config) { c.MessagesPerQuota = 0 }},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}

	v3 := Virus3()
	v3.ValidNumberFraction = 0
	if err := v3.Validate(); err == nil {
		t.Error("zero valid fraction accepted")
	}
	v2 := Virus2()
	v2.Period = 0
	if err := v2.Validate(); err == nil {
		t.Error("zero period accepted")
	}
}

func TestAttachValidation(t *testing.T) {
	t.Parallel()

	net, _ := completeNet(t, 3, fastNetConfig(), 1)
	if _, err := Attach(Config{}, net, rng.New(1)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Attach(Virus1(), nil, rng.New(1)); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := Attach(Virus1(), net, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestInfectionActivatesSending(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 5, fastNetConfig(), 2)
	cfg := Config{
		Name:                 "test",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaNone,
	}
	eng, err := Attach(cfg, net, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Suppress secondary infections so only the seed sends.
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	if !eng.Active(0) {
		t.Error("seed phone sender not active")
	}
	sim.RunUntil(time.Hour)
	if eng.Stats().MessagesSent == 0 {
		t.Error("no messages sent in an hour")
	}
	// ~1/minute pacing: about 59-60 messages.
	if sent := eng.Stats().MessagesSent; sent < 50 || sent > 61 {
		t.Errorf("sent %d messages, want ~59", sent)
	}
}

func TestDormancyDelaysFirstSend(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 3, fastNetConfig(), 4)
	cfg := Config{
		Name:                 "dormant",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Dormancy:             2 * time.Hour,
		Quota:                QuotaNone,
	}
	eng, err := Attach(cfg, net, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2 * time.Hour)
	if eng.Stats().MessagesSent != 0 {
		t.Errorf("dormant virus sent %d messages before dormancy ended", eng.Stats().MessagesSent)
	}
	sim.RunUntil(3 * time.Hour)
	if eng.Stats().MessagesSent == 0 {
		t.Error("virus never woke from dormancy")
	}
}

func TestPerPeriodQuota(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 10, fastNetConfig(), 6)
	cfg := Config{
		Name:                 "quota",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaPerPeriod,
		MessagesPerQuota:     5,
		Period:               24 * time.Hour,
	}
	eng, err := Attach(cfg, net, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// Block acceptance so only the seed sends (AF minimal).
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(24*time.Hour - time.Minute)
	if sent := eng.Stats().MessagesSent; sent != 5 {
		t.Errorf("sent %d in first period, want 5", sent)
	}
	sim.RunUntil(48*time.Hour - time.Minute)
	if sent := eng.Stats().MessagesSent; sent != 10 {
		t.Errorf("sent %d after two periods, want 10", sent)
	}
	if eng.Stats().QuotaPauses == 0 {
		t.Error("no quota pauses recorded")
	}
}

func TestPerRebootQuota(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 10, fastNetConfig(), 8)
	cfg := Config{
		Name:                 "reboot",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaPerReboot,
		MessagesPerQuota:     3,
		RebootInterval:       rng.Constant{V: 10 * time.Hour},
	}
	eng, err := Attach(cfg, net, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(9 * time.Hour)
	if sent := eng.Stats().MessagesSent; sent != 3 {
		t.Errorf("sent %d before first reboot, want 3", sent)
	}
	sim.RunUntil(19 * time.Hour)
	if sent := eng.Stats().MessagesSent; sent != 6 {
		t.Errorf("sent %d after first reboot window, want 6", sent)
	}
}

func TestPatchStopsSending(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 5, fastNetConfig(), 10)
	cfg := Config{
		Name:                 "patched",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaNone,
	}
	eng, err := Attach(cfg, net, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(30 * time.Minute)
	sentBefore := eng.Stats().MessagesSent
	if sentBefore == 0 {
		t.Fatal("no messages before patch")
	}
	if err := net.Patch(0); err != nil {
		t.Fatal(err)
	}
	if eng.Active(0) {
		t.Error("sender still active after patch")
	}
	sim.RunUntil(5 * time.Hour)
	if sent := eng.Stats().MessagesSent; sent != sentBefore {
		t.Errorf("patched phone kept sending: %d -> %d", sentBefore, sent)
	}
}

func TestRandomDialingValidFraction(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 50, fastNetConfig(), 12)
	cfg := Config{
		Name:                 "dialer",
		Targeting:            TargetRandom,
		ValidNumberFraction:  1.0 / 3.0,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaNone,
	}
	eng, err := Attach(cfg, net, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(48 * time.Hour)
	sent := eng.Stats().MessagesSent
	delivered := net.Metrics().Deliveries
	if sent < 1000 {
		t.Fatalf("too few messages for the fraction test: %d", sent)
	}
	frac := float64(delivered) / float64(sent)
	if frac < 0.28 || frac > 0.39 {
		t.Errorf("valid fraction = %v, want ~1/3", frac)
	}
}

func TestMultiRecipientMessages(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 30, fastNetConfig(), 14)
	cfg := Config{
		Name:                 "multi",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 100, // larger than the 29-contact list
		MinWait:              time.Minute,
		Quota:                QuotaNone,
	}
	if _, err := Attach(cfg, net, rng.New(15)); err != nil {
		t.Fatal(err)
	}
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(90 * time.Second)
	// First message covers the whole contact list, clamped to 29.
	if d := net.Metrics().Deliveries; d != 29 {
		t.Errorf("first multi-recipient message delivered to %d, want 29", d)
	}
}

func TestCycleCoversAllContacts(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 6, fastNetConfig(), 16)
	cfg := Config{
		Name:                 "cycle",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaNone,
	}
	if _, err := Attach(cfg, net, rng.New(17)); err != nil {
		t.Fatal(err)
	}
	if err := net.SetAcceptanceFactor(1e-9); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(6 * time.Minute)
	// 5 contacts, 5 messages in ~5 minutes: each contact hit exactly once.
	for id := 1; id < 6; id++ {
		if got := net.ReceivedInfected(mms.PhoneID(id)); got != 1 {
			t.Errorf("phone %d received %d messages after one cycle, want 1", id, got)
		}
	}
}

func TestFullPropagationReachesPlateau(t *testing.T) {
	t.Parallel()

	// End-to-end: aggressive virus on a complete graph of 40 phones, all
	// vulnerable. Eventual acceptance 0.40 -> plateau ~16.
	net, sim := completeNet(t, 40, fastNetConfig(), 18)
	cfg := Config{
		Name:                 "agg",
		Targeting:            TargetContacts,
		ContactOrder:         OrderCycle,
		RecipientsPerMessage: 1,
		MinWait:              time.Minute,
		Quota:                QuotaNone,
	}
	if _, err := Attach(cfg, net, rng.New(19)); err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(100 * time.Hour)
	infected := net.InfectedCount()
	// Seed + ~0.40 of the remaining 39: about 16-17; allow a wide band for
	// one replication.
	if infected < 8 || infected > 28 {
		t.Errorf("plateau = %d infected, want ~16", infected)
	}
}

func TestEngineDeterministic(t *testing.T) {
	t.Parallel()

	run := func() (uint64, int) {
		net, sim := completeNet(t, 20, fastNetConfig(), 20)
		if _, err := Attach(Virus3(), net, rng.New(21)); err != nil {
			t.Fatal(err)
		}
		if err := net.SeedInfection(0); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(10 * time.Hour)
		return net.Metrics().MessagesSent, net.InfectedCount()
	}
	s1, i1 := run()
	s2, i2 := run()
	if s1 != s2 || i1 != i2 {
		t.Errorf("engine replay diverged: (%d,%d) vs (%d,%d)", s1, i1, s2, i2)
	}
}

func TestNextBoundary(t *testing.T) {
	t.Parallel()

	day := 24 * time.Hour
	tests := []struct {
		now, want time.Duration
	}{
		{0, 0},
		{time.Hour, day},
		{day, day},
		{day + time.Minute, 2 * day},
		{47 * time.Hour, 2 * day},
	}
	for _, tt := range tests {
		if got := nextBoundary(tt.now, day); got != tt.want {
			t.Errorf("nextBoundary(%v) = %v, want %v", tt.now, got, tt.want)
		}
	}
}

func TestEngineConfigAccessor(t *testing.T) {
	t.Parallel()

	net, _ := completeNet(t, 3, fastNetConfig(), 30)
	eng, err := Attach(Virus1(), net, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Config().Name != "Virus 1" {
		t.Errorf("Config().Name = %q", eng.Config().Name)
	}
	if eng.Active(-1) || eng.Active(99) {
		t.Error("out-of-range Active not false")
	}
}

func TestEmptyContactListEndsCampaign(t *testing.T) {
	t.Parallel()

	// A graph with an isolated phone: its campaign ends immediately.
	b, err := graph.NewCSRBuilder(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	vuln := []bool{true, true, true}
	sim := des.New()
	net, err := mms.NewCSR(g, vuln, fastNetConfig(), sim, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Attach(Virus1(), net, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(48 * time.Hour)
	if eng.Stats().MessagesSent != 0 {
		t.Errorf("isolated phone sent %d messages", eng.Stats().MessagesSent)
	}
	if eng.Active(0) {
		t.Error("isolated phone's campaign still active")
	}
}
