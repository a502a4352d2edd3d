package mms

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/rng"
)

// buildFaultNet builds a chain network with the given fault schedule and
// seed, all phones vulnerable.
func buildFaultNet(t *testing.T, n int, cfg Config, seed uint64) (*Network, *des.Simulation) {
	t.Helper()
	g := testTopology(t, n, pathLinks(n)...)
	vulnerable := make([]bool, n)
	for i := range vulnerable {
		vulnerable[i] = true
	}
	sim := des.New()
	net, err := NewCSR(g, vulnerable, cfg, sim, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, sim
}

func TestOutageQueuesAndDrains(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.GatewayDetectThreshold = 1
	cfg.Faults = &faults.Schedule{
		Outages: []faults.Window{{Start: 0, End: time.Hour}},
	}
	var events []FaultEvent
	net, sim := buildFaultNet(t, 2, cfg, 1)
	net.OnFault(func(ev FaultEvent) { events = append(events, ev) })

	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued || res.Outcome != OutcomeSent || res.Delivered != 0 {
		t.Fatalf("send during outage: %+v, want queued", res)
	}
	// A down gateway observes nothing: detection must wait for the drain.
	if _, detected := net.set.Detected(); detected || len(net.obsTimes) != 0 {
		t.Errorf("gateway observed %d messages during full outage", len(net.obsTimes))
	}
	if m := net.Metrics(); m.OutageQueued != 1 || m.Deliveries != 0 {
		t.Errorf("metrics after queue = %+v", m)
	}

	sim.RunUntil(2 * time.Hour)

	m := net.Metrics()
	if m.OutageDrained != 1 || m.Deliveries != 1 {
		t.Errorf("metrics after drain = %+v", m)
	}
	if _, detected := net.set.Detected(); !detected {
		t.Error("virus not detected after drain")
	}
	if at, _ := net.set.Detected(); at != time.Hour {
		t.Errorf("detection at %v, want the drain time %v", at, time.Hour)
	}
	if got := net.State(1); got != StateInfected {
		t.Fatalf("recipient state = %v, want infected", got)
	}
	if got := net.InfectedAt(1); got < time.Hour {
		t.Errorf("infection at %v, before the window closed", got)
	}
	if len(events) != 2 || events[0].Kind != FaultOutageQueued || events[1].Kind != FaultOutageDrained {
		t.Errorf("fault events = %+v, want queued then drained", events)
	}
}

func TestDegradedCapacityQueuesFraction(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.AllowDuplicateTrials = true
	cfg.Faults = &faults.Schedule{
		Outages: []faults.Window{{Start: 0, End: time.Hour, Capacity: 0.5}},
	}
	net, _ := buildFaultNet(t, 2, cfg, 7)

	const sends = 4000
	for i := 0; i < sends; i++ {
		if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	queued := float64(net.Metrics().OutageQueued) / sends
	if queued < 0.45 || queued > 0.55 {
		t.Errorf("queued fraction = %.3f, want about 0.5", queued)
	}
	if net.Metrics().Deliveries == 0 {
		t.Error("no copies transited a half-capacity window")
	}
}

func TestRetryRecoversLostCopies(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.DeliveryLossProb = 0.9
	cfg.Faults = &faults.Schedule{
		Retry: faults.RetryPolicy{MaxAttempts: 60, Base: time.Second, Max: time.Minute},
	}
	net, sim := buildFaultNet(t, 2, cfg, 3)
	if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	m := net.Metrics()
	if m.Deliveries != 1 {
		t.Fatalf("copy not recovered: %+v", m)
	}
	if m.DeliveryRetries == 0 {
		t.Error("no retries recorded despite 90% loss")
	}
	if m.DeliveryLost != 0 {
		t.Errorf("copy reported lost after recovery: %+v", m)
	}
}

func TestRetryExhaustionLosesCopy(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.DeliveryLossProb = 0.999999
	cfg.Faults = &faults.Schedule{
		Retry: faults.RetryPolicy{MaxAttempts: 2, Base: time.Second},
	}
	net, sim := buildFaultNet(t, 2, cfg, 5)
	if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	m := net.Metrics()
	if m.DeliveryLost != 1 {
		t.Errorf("lost copies = %d, want 1 after exhausting retries", m.DeliveryLost)
	}
	if m.DeliveryRetries != 2 {
		t.Errorf("retries = %d, want 2", m.DeliveryRetries)
	}
	if m.Deliveries != 0 {
		t.Errorf("deliveries = %d, want 0", m.Deliveries)
	}
}

func TestChurnDefersSendsWhileOff(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.Faults = &faults.Schedule{
		Churn: faults.Churn{
			UpTime:   rng.Constant{V: time.Hour},
			DownTime: rng.Constant{V: 30 * time.Minute},
		},
	}
	net, sim := buildFaultNet(t, 2, cfg, 1)

	if net.phoneOff(0) {
		t.Fatal("phone 0 not powered on at start")
	}
	var res SendResult
	if _, err := sim.ScheduleArgAt(90*time.Minute-time.Second, func(*des.Simulation, uint64) {
		r, err := net.Send(0, []Target{ValidTarget(1)})
		if err != nil {
			t.Error(err)
		}
		res = r
	}, 0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(90 * time.Minute)

	if res.Outcome != OutcomeDeferred {
		t.Fatalf("send from powered-off phone: %+v, want deferred", res)
	}
	if want := 90*time.Minute + time.Second; res.RetryAt != want {
		t.Errorf("RetryAt = %v, want just after power-on at %v", res.RetryAt, want)
	}
	m := net.Metrics()
	if m.ChurnDeferred != 1 || m.PhonePowerCycles == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestChurnHoldsReadsUntilPowerOn(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.Faults = &faults.Schedule{
		Churn: faults.Churn{
			UpTime:   rng.Constant{V: time.Hour},
			DownTime: rng.Constant{V: 30 * time.Minute},
		},
	}
	net, sim := buildFaultNet(t, 2, cfg, 1)

	// Send just before the population powers off at 1h; the read lands at
	// send+2s, inside the off window, and must wait until 1h30m.
	sendAt := time.Hour - time.Second
	if _, err := sim.ScheduleArgAt(sendAt, func(*des.Simulation, uint64) {
		if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
			t.Error(err)
		}
	}, 0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2 * time.Hour)

	m := net.Metrics()
	if m.ReadsHeld != 1 {
		t.Fatalf("reads held = %d, want 1 (metrics %+v)", m.ReadsHeld, m)
	}
	if got := net.State(1); got != StateInfected {
		t.Fatalf("recipient state = %v, want infected after power-on", got)
	}
	if want := 90 * time.Minute; net.InfectedAt(1) != want {
		t.Errorf("infection at %v, want the power-on instant %v", net.InfectedAt(1), want)
	}
}

// TestFaultScheduleDeterminism drives an identical faulty workload twice
// from the same seed and demands identical counters, and drives a third
// run from another seed to show the schedule actually randomizes.
func TestFaultScheduleDeterminism(t *testing.T) {
	t.Parallel()

	schedule := &faults.Schedule{
		Outages:     []faults.Window{{Start: 10 * time.Minute, End: time.Hour, Capacity: 0.3}},
		Retry:       faults.RetryPolicy{MaxAttempts: 3, Base: 10 * time.Second, Jitter: 0.5},
		Churn:       faults.Churn{UpTime: rng.Exponential{MeanD: 40 * time.Minute}, DownTime: rng.Exponential{MeanD: 10 * time.Minute}},
		DrainSpread: 5 * time.Minute,
	}
	runOnce := func(seed uint64) Metrics {
		cfg := instantConfig()
		cfg.AllowDuplicateTrials = true
		cfg.DeliveryLossProb = 0.4
		cfg.Faults = schedule
		net, sim := buildFaultNet(t, 4, cfg, seed)
		var tick des.ArgHandler
		tick = func(*des.Simulation, uint64) {
			if _, err := net.Send(0, []Target{ValidTarget(1), ValidTarget(2), ValidTarget(3)}); err != nil {
				t.Error(err)
			}
			if sim.Now() < 3*time.Hour {
				if _, err := sim.ScheduleArgAfter(time.Minute, tick, 0); err != nil {
					t.Error(err)
				}
			}
		}
		if _, err := sim.ScheduleArgAt(0, tick, 0); err != nil {
			t.Fatal(err)
		}
		sim.RunUntil(4 * time.Hour)
		return net.Metrics()
	}

	a, b := runOnce(11), runOnce(11)
	if a != b {
		t.Errorf("same seed, different metrics:\n%+v\n%+v", a, b)
	}
	c := runOnce(12)
	if a == c {
		t.Log("different seeds produced identical fault metrics (possible but unlikely)")
	}
}

// TestDeliveryLossBoundaries covers the DeliveryLossProb edges: 0 loses
// nothing and a probability within float resolution of 1 loses everything.
func TestDeliveryLossBoundaries(t *testing.T) {
	t.Parallel()

	const sends = 1000
	run := func(loss float64) Metrics {
		cfg := instantConfig()
		cfg.AllowDuplicateTrials = true
		cfg.DeliveryLossProb = loss
		net, _ := buildFaultNet(t, 2, cfg, 9)
		for i := 0; i < sends; i++ {
			if _, err := net.Send(0, []Target{ValidTarget(1)}); err != nil {
				t.Fatal(err)
			}
		}
		return net.Metrics()
	}

	if m := run(0); m.DeliveryLost != 0 || m.Deliveries != sends {
		t.Errorf("loss 0: %+v, want every copy delivered", m)
	}
	if m := run(1 - 1e-12); m.Deliveries != 0 || m.DeliveryLost != sends {
		t.Errorf("loss ->1: %+v, want every copy lost", m)
	}
}

// TestDeferredRetryRoundTrip exercises the ActionDefer/RetryAt contract
// end-to-end: a controller that defers once must see the retried attempt
// succeed at the promised time.
func TestDeferredRetryRoundTrip(t *testing.T) {
	t.Parallel()

	net, sim := buildNet(t, 2, instantConfig())
	ctl := &deferOnceController{wait: 15 * time.Minute}
	net.AddController(ctl)

	res, err := net.Send(0, []Target{ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeDeferred {
		t.Fatalf("first attempt: %+v, want deferred", res)
	}
	if res.RetryAt != 15*time.Minute {
		t.Fatalf("RetryAt = %v, want 15m", res.RetryAt)
	}
	// Retry exactly when the verdict allows, as the virus engine does.
	if _, err := sim.ScheduleArgAt(res.RetryAt, func(*des.Simulation, uint64) {
		r, err := net.Send(0, []Target{ValidTarget(1)})
		if err != nil {
			t.Error(err)
			return
		}
		if r.Outcome != OutcomeSent || r.Delivered != 1 {
			t.Errorf("retried attempt: %+v, want sent with one delivery", r)
		}
	}, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	m := net.Metrics()
	if m.MessagesDeferred != 1 || m.MessagesSent != 1 {
		t.Errorf("metrics = %+v, want one deferral then one send", m)
	}
	if ctl.attempts != 2 {
		t.Errorf("controller saw %d attempts, want 2", ctl.attempts)
	}
}

// deferOnceController defers the first attempt of each phone by wait, then
// allows, mimicking the monitoring mechanism's forced wait.
type deferOnceController struct {
	wait     time.Duration
	attempts int
	deferred map[PhoneID]bool
}

func (d *deferOnceController) Name() string { return "defer-once" }

func (d *deferOnceController) OnSendAttempt(p PhoneID, now time.Duration) SendVerdict {
	d.attempts++
	if d.deferred == nil {
		d.deferred = make(map[PhoneID]bool)
	}
	if !d.deferred[p] {
		d.deferred[p] = true
		return SendVerdict{Action: ActionDefer, RetryAt: now + d.wait}
	}
	return SendVerdict{Action: ActionAllow}
}

func (d *deferOnceController) OnSent(PhoneID, time.Duration, int) {}

// TestOutageDrainConservesMessages holds three messages whose drains fire
// out of queue order, the third reusing the slot of whichever first
// message drained while the other is still held. Every held message must
// drain exactly once with its own sender and recipient count, and every
// copy must reach the recipients it was addressed to.
func TestOutageDrainConservesMessages(t *testing.T) {
	t.Parallel()

	cfg := instantConfig()
	cfg.Faults = &faults.Schedule{
		Outages: []faults.Window{
			{Start: 0, End: time.Hour},
			{Start: time.Hour, End: 10 * time.Hour},
		},
		DrainSpread: 2 * time.Hour,
	}
	net, sim := buildFaultNet(t, 8, cfg, 2)
	messages := []struct {
		from PhoneID
		to   []PhoneID
	}{
		{0, []PhoneID{1, 2}},
		{3, []PhoneID{4}},
		{5, []PhoneID{6, 7}},
	}
	send := func(m int) {
		targets := make([]Target, len(messages[m].to))
		for i, id := range messages[m].to {
			targets[i] = ValidTarget(id)
		}
		res, err := net.Send(messages[m].from, targets)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Queued {
			t.Fatalf("message %d not queued: %+v", m, res)
		}
	}
	type held struct {
		phone      PhoneID
		recipients int
	}
	queued := map[held]int{}
	drained := map[held]int{}
	var drainOrder []PhoneID
	net.OnFault(func(ev FaultEvent) {
		switch ev.Kind {
		case FaultOutageQueued:
			queued[held{ev.Phone, ev.Recipients}]++
		case FaultOutageDrained:
			drained[held{ev.Phone, ev.Recipients}]++
			drainOrder = append(drainOrder, ev.Phone)
			if len(drainOrder) == 1 {
				// Queue the third message inside the second window, once
				// one slot is free and the other still held.
				if _, err := sim.ScheduleArgAfter(time.Second, func(*des.Simulation, uint64) { send(2) }, 0); err != nil {
					t.Error(err)
				}
			}
		}
	})
	send(0)
	send(1)
	sim.RunUntil(48 * time.Hour)

	// The premises: drains left queue order, and a slot was reused.
	if len(drainOrder) == 0 || drainOrder[0] != 3 {
		t.Fatalf("drain order %v, want the second message to drain first (pick another seed)", drainOrder)
	}
	if len(net.held) != 2 {
		t.Errorf("%d held slots for 3 messages, want 2 (one reused)", len(net.held))
	}
	if len(queued) != 3 || len(drained) != len(queued) {
		t.Fatalf("queued %v, drained %v", queued, drained)
	}
	for k, c := range queued {
		if drained[k] != c {
			t.Errorf("message %+v queued %d times, drained %d", k, c, drained[k])
		}
	}
	recipients := map[PhoneID]PhoneID{}
	for _, m := range messages {
		for _, id := range m.to {
			recipients[id] = m.from
		}
	}
	for id := PhoneID(0); id < 8; id++ {
		from, addressed := recipients[id]
		got := net.ReceivedInfected(id)
		switch {
		case addressed && got != 1:
			t.Errorf("recipient %d received %d copies, want 1", id, got)
		case addressed && net.Infector(id) != from:
			t.Errorf("recipient %d infected by %d, want %d", id, net.Infector(id), from)
		case !addressed && got != 0:
			t.Errorf("phone %d received %d copies, addressed none", id, got)
		}
	}
	if m := net.Metrics(); m.OutageQueued != 3 || m.OutageDrained != 3 || m.Deliveries != 5 {
		t.Errorf("metrics = %+v, want 3 queued, 3 drained, 5 deliveries", m)
	}
}

// TestOutageDrainAllocationFree pins the store-and-forward path at zero
// allocations once the held queue is warm: queueing a message under an
// outage, then draining and transiting it, reuses a held slot, its target
// slice and an arena slot.
func TestOutageDrainAllocationFree(t *testing.T) {
	const cycles = 60
	outages := make([]faults.Window, cycles)
	for i := range outages {
		start := time.Duration(2*i) * time.Hour
		outages[i] = faults.Window{Start: start, End: start + time.Hour}
	}
	cfg := instantConfig()
	cfg.AllowDuplicateTrials = true
	cfg.Faults = &faults.Schedule{Outages: outages, DrainSpread: time.Minute}
	net, sim := buildFaultNet(t, 4, cfg, 1)
	targets := []Target{ValidTarget(1), ValidTarget(2), ValidTarget(3)}
	cycle := 0
	op := func() {
		start := outages[cycle].Start
		cycle++
		sim.RunUntil(start)
		if res, err := net.Send(0, targets); err != nil || !res.Queued {
			t.Fatalf("send at %v: %+v, %v; want queued", start, res, err)
		}
		sim.RunUntil(start + 2*time.Hour - time.Nanosecond)
	}
	op() // warm the held queue, the arena and the read path
	const runs = 40
	if allocs := testing.AllocsPerRun(runs, op); allocs != 0 {
		t.Fatalf("outage queue and drain allocated %.1f times per message, want 0", allocs)
	}
	// The warm-up, and AllocsPerRun's own warm-up call, add two cycles.
	if m := net.Metrics(); m.OutageDrained != runs+2 || len(net.held) != 1 {
		t.Errorf("drained %d messages through %d held slots, want %d through 1", m.OutageDrained, len(net.held), runs+2)
	}
}
