package response

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

// harness builds a 10-phone complete-graph network with instant delivery
// and reads, detection threshold detect, and all phones vulnerable.
func harness(t *testing.T, detect int, seed uint64) (*mms.Network, *des.Simulation) {
	t.Helper()
	const n = 10
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
	cfg := mms.Config{
		DeliveryDelay:          rng.Constant{V: time.Second},
		ReadDelay:              rng.Constant{V: time.Second},
		AcceptanceFactor:       mms.PaperAcceptanceFactor,
		GatewayDetectThreshold: detect,
	}
	sim := des.New()
	net, err := mms.NewCSR(g, vuln, cfg, sim, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net, sim
}

func attach(t *testing.T, net *mms.Network, f mms.ResponseFactory, seed uint64) mms.Response {
	t.Helper()
	r := f()
	if err := net.AttachResponse(r, rng.New(seed)); err != nil {
		t.Fatalf("attach %s: %v", r.Name(), err)
	}
	return r
}

func TestScanActivatesAfterDelay(t *testing.T) {
	t.Parallel()

	net, sim := harness(t, 3, 1)
	r := attach(t, net, NewScan(2*time.Hour), 2)
	scan, ok := r.(*Scan)
	if !ok {
		t.Fatal("factory did not produce *Scan")
	}

	// Three messages trigger detectability at t=0.
	for i := 0; i < 3; i++ {
		if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if scan.ActiveAt(sim.Now()) {
		t.Fatal("scan active before its delay")
	}
	sim.RunUntil(time.Hour)
	if scan.ActiveAt(sim.Now()) {
		t.Error("scan active after 1h, delay is 2h")
	}
	sim.RunUntil(3 * time.Hour)
	if !scan.ActiveAt(sim.Now()) {
		t.Fatal("scan not active after delay")
	}
	// Messages are now dropped at the gateway.
	res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.GatewayDropped {
		t.Error("active scan did not drop the message")
	}
}

func TestScanNegativeDelayRejected(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 3)
	s := &Scan{ActivationDelay: -time.Hour}
	if err := net.AttachResponse(s, rng.New(1)); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestDetectorDropsWithAccuracy(t *testing.T) {
	t.Parallel()

	net, sim := harness(t, 1, 4)
	det := &Detector{Accuracy: 0.9, AnalysisDelay: time.Hour, IndependentPerCopy: true}
	if err := net.AttachResponse(det, rng.New(5)); err != nil {
		t.Fatal(err)
	}

	// Trigger detection, then let the analysis period pass.
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2 * time.Hour)
	if !det.ActiveAt(sim.Now()) {
		t.Fatal("detector inactive after analysis period")
	}
	const trials = 3000
	dropped := 0
	for i := 0; i < trials; i++ {
		res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.GatewayDropped {
			dropped++
		}
	}
	frac := float64(dropped) / trials
	if frac < 0.87 || frac > 0.93 {
		t.Errorf("drop fraction = %v, want ~0.90", frac)
	}
}

func TestDetectorCorrelatedPerSenderDay(t *testing.T) {
	t.Parallel()

	net, sim := harness(t, 1, 40)
	r := attach(t, net, NewDetector(0.5, time.Hour), 41)
	det, ok := r.(*Detector)
	if !ok {
		t.Fatal("factory did not produce *Detector")
	}
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2 * time.Hour)
	if !det.ActiveAt(sim.Now()) {
		t.Fatal("detector inactive")
	}
	// Within one sender-day, every copy must share the verdict.
	first, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.GatewayDropped != first.GatewayDropped {
			t.Fatal("verdict not correlated within a sender-day")
		}
	}
	// Across many sender-days the recognition rate approaches Accuracy.
	recognized := 0
	const days = 400
	for d := 1; d <= days; d++ {
		sim.RunUntil(time.Duration(d)*24*time.Hour + 3*time.Hour)
		res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.GatewayDropped {
			recognized++
		}
	}
	frac := float64(recognized) / days
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("per-day recognition fraction = %v, want ~0.5", frac)
	}
}

func TestDetectorValidation(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 6)
	if err := net.AttachResponse(&Detector{Accuracy: 1.5}, rng.New(1)); err == nil {
		t.Error("accuracy > 1 accepted")
	}
	if err := net.AttachResponse(&Detector{Accuracy: -0.1}, rng.New(1)); err == nil {
		t.Error("negative accuracy accepted")
	}
	if err := net.AttachResponse(&Detector{Accuracy: 0.9, AnalysisDelay: -time.Second}, rng.New(1)); err == nil {
		t.Error("negative analysis delay accepted")
	}
	if err := net.AttachResponse(&Detector{Accuracy: 0.9}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestEducationReducesAcceptance(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 7)
	baselineAF := net.AcceptanceFactor()
	attach(t, net, NewEducation(0.20), 8)
	if got := net.AcceptanceFactor(); got >= baselineAF {
		t.Errorf("education did not reduce AF: %v -> %v", baselineAF, got)
	}
	if got := mms.EventualAcceptance(net.AcceptanceFactor()); got < 0.19 || got > 0.21 {
		t.Errorf("eventual acceptance after education = %v, want 0.20", got)
	}
}

func TestEducationInvalidTarget(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 9)
	e := &Education{EventualAcceptance: 1.5}
	if err := net.AttachResponse(e, nil); err == nil {
		t.Error("invalid education target accepted")
	}
}

func TestImmunizerPatchesPopulation(t *testing.T) {
	t.Parallel()

	net, sim := harness(t, 1, 10)
	r := attach(t, net, NewImmunizer(24*time.Hour, 6*time.Hour), 11)
	im, ok := r.(*Immunizer)
	if !ok {
		t.Fatal("factory did not produce *Immunizer")
	}

	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	// One message triggers detection at t=0.
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	// Detection at t=0 fixes the deployment start at the end of
	// development; no phone is patched before it.
	if at, armed := im.DeploymentStart(); !armed || at != 24*time.Hour {
		t.Errorf("deployment start = %v, %v; want 24h, true", at, armed)
	}
	sim.RunUntil(24*time.Hour - time.Nanosecond)
	if net.Metrics().Patched != 0 {
		t.Fatal("phones patched before development finished")
	}
	sim.RunUntil(31 * time.Hour)
	// All 10 vulnerable phones patched within the 6-hour window.
	if got := net.Metrics().Patched; got != 10 {
		t.Errorf("patched = %d, want 10", got)
	}
	if net.State(1) != mms.StateImmune {
		t.Errorf("susceptible phone state after patch = %v", net.State(1))
	}
	if net.State(0) != mms.StateInfected || !net.Patched(0) {
		t.Errorf("infected phone after patch: %v patched=%v", net.State(0), net.Patched(0))
	}
}

func TestImmunizerZeroWindowPatchesAtOnce(t *testing.T) {
	t.Parallel()

	net, sim := harness(t, 1, 12)
	attach(t, net, NewImmunizer(time.Hour, 0), 13)
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(time.Hour + time.Minute)
	if got := net.Metrics().Patched; got != 10 {
		t.Errorf("patched = %d, want 10 immediately after dev time", got)
	}
}

func TestImmunizerValidation(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 14)
	if err := net.AttachResponse(&Immunizer{DevelopmentTime: -1}, rng.New(1)); err == nil {
		t.Error("negative dev time accepted")
	}
	if err := net.AttachResponse(&Immunizer{DeploymentWindow: -1}, rng.New(1)); err == nil {
		t.Error("negative window accepted")
	}
	if err := net.AttachResponse(&Immunizer{}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestMonitorFlagsAndDefers(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1<<30, 15)
	r := attach(t, net, NewMonitorFull(time.Hour, 3, 15*time.Minute), 16)
	mon, ok := r.(*Monitor)
	if !ok {
		t.Fatal("factory did not produce *Monitor")
	}

	// Four quick messages exceed the threshold of 3 within the window.
	for i := 0; i < 4; i++ {
		res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != mms.OutcomeSent {
			t.Fatalf("message %d outcome = %v", i, res.Outcome)
		}
	}
	if !mon.Flagged(0) {
		t.Fatal("phone not flagged after exceeding threshold")
	}
	// The next attempt (same instant) must be deferred by the forced wait.
	res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != mms.OutcomeDeferred {
		t.Fatalf("flagged phone send outcome = %v, want deferred", res.Outcome)
	}
	if res.RetryAt != 15*time.Minute {
		t.Errorf("RetryAt = %v, want 15m after last send at t=0", res.RetryAt)
	}
	// An unflagged phone is unaffected.
	res2, err := net.Send(1, []mms.Target{mms.ValidTarget(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != mms.OutcomeSent {
		t.Errorf("unflagged phone outcome = %v", res2.Outcome)
	}
}

func TestMonitorWindowPruning(t *testing.T) {
	t.Parallel()

	net, sim := harness(t, 1<<30, 17)
	r := attach(t, net, NewMonitorFull(time.Hour, 3, 15*time.Minute), 18)
	mon, ok := r.(*Monitor)
	if !ok {
		t.Fatal("factory did not produce *Monitor")
	}
	// Three messages now (at threshold, not exceeding), three more after the
	// window has slid: never flagged.
	for i := 0; i < 3; i++ {
		if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(2 * time.Hour)
	for i := 0; i < 3; i++ {
		if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Flagged(0) {
		t.Error("phone flagged although counts stayed at the threshold per window")
	}
}

func TestMonitorValidation(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 19)
	if err := net.AttachResponse(&Monitor{Window: 0, Threshold: 1, ForcedWait: time.Minute}, nil); err == nil {
		t.Error("zero window accepted")
	}
	if err := net.AttachResponse(&Monitor{Window: time.Hour, Threshold: 0, ForcedWait: time.Minute}, nil); err == nil {
		t.Error("zero threshold accepted")
	}
	if err := net.AttachResponse(&Monitor{Window: time.Hour, Threshold: 1, ForcedWait: 0}, nil); err == nil {
		t.Error("zero wait accepted")
	}
}

func TestBlacklistBlocksAtThreshold(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1<<30, 20)
	r := attach(t, net, NewBlacklist(3), 21)
	bl, ok := r.(*Blacklist)
	if !ok {
		t.Fatal("factory did not produce *Blacklist")
	}
	for i := 0; i < 3; i++ {
		res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != mms.OutcomeSent {
			t.Fatalf("message %d outcome = %v, want sent", i, res.Outcome)
		}
	}
	if !bl.Blacklisted(0) {
		t.Fatal("phone not blacklisted at threshold")
	}
	res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != mms.OutcomeBlocked {
		t.Errorf("blacklisted phone outcome = %v, want blocked", res.Outcome)
	}
	// Other phones unaffected.
	if bl.Blacklisted(1) {
		t.Error("uninvolved phone blacklisted")
	}
}

func TestBlacklistCountsMessagesNotRecipients(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1<<30, 22)
	r := attach(t, net, NewBlacklist(3), 23)
	bl, ok := r.(*Blacklist)
	if !ok {
		t.Fatal("factory did not produce *Blacklist")
	}
	// One message to 9 recipients counts once — the Virus 2 evasion.
	targets := make([]mms.Target, 0, 9)
	for i := 1; i < 10; i++ {
		targets = append(targets, mms.ValidTarget(mms.PhoneID(i)))
	}
	if _, err := net.Send(0, targets); err != nil {
		t.Fatal(err)
	}
	if bl.Blacklisted(0) {
		t.Error("multi-recipient message counted per recipient")
	}
}

func TestBlacklistCountsInvalidTargets(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1<<30, 24)
	r := attach(t, net, NewBlacklist(2), 25)
	bl, ok := r.(*Blacklist)
	if !ok {
		t.Fatal("factory did not produce *Blacklist")
	}
	// Messages to invalid numbers still count — the Virus 3 weakness.
	for i := 0; i < 2; i++ {
		if _, err := net.Send(0, []mms.Target{mms.InvalidTarget()}); err != nil {
			t.Fatal(err)
		}
	}
	if !bl.Blacklisted(0) {
		t.Error("invalid-number messages not counted")
	}
}

func TestBlacklistValidation(t *testing.T) {
	t.Parallel()

	net, _ := harness(t, 1, 26)
	if err := net.AttachResponse(&Blacklist{Threshold: 0}, nil); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestCombinedMechanismsCoexist(t *testing.T) {
	t.Parallel()

	// The paper's future-work scenario: monitoring plus scan on one run.
	net, sim := harness(t, 2, 27)
	attach(t, net, NewMonitorFull(time.Hour, 3, 10*time.Minute), 28)
	attach(t, net, NewScan(time.Hour), 29)

	for i := 0; i < 6; i++ {
		if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Monitoring flagged the phone after the burst; an immediate retry is
	// deferred (controller precedes gateway).
	res, err := net.Send(0, []mms.Target{mms.ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != mms.OutcomeDeferred {
		t.Fatalf("outcome = %v, want deferred from monitor", res.Outcome)
	}
	// Later, once the forced wait has passed and the scan signature is
	// live, the message passes the monitor but the gateway drops it.
	sim.RunUntil(2 * time.Hour)
	res, err = net.Send(0, []mms.Target{mms.ValidTarget(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != mms.OutcomeSent || !res.GatewayDropped {
		t.Errorf("outcome = %+v, want sent+gateway-dropped", res)
	}
}
