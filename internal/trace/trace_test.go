package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

func tracedNet(t *testing.T, rec *Recorder) (*mms.Network, *des.Simulation) {
	t.Helper()
	b, err := graph.NewCSRBuilder(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mms.Config{
		DeliveryDelay:          rng.Constant{V: time.Second},
		ReadDelay:              rng.Constant{V: time.Second},
		AcceptanceFactor:       2,
		GatewayDetectThreshold: 1000,
	}
	sim := des.New()
	net, err := mms.NewCSR(g, []bool{true, true, true, true}, cfg, sim, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AttachResponse(rec, nil); err != nil {
		t.Fatal(err)
	}
	return net, sim
}

func TestRecorderCapturesLifecycle(t *testing.T) {
	t.Parallel()

	rec := NewRecorder(0)
	net, sim := tracedNet(t, rec)
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := net.Patch(2); err != nil {
		t.Fatal(err)
	}

	counts := rec.CountByKind()
	if counts[KindInfected] != 2 {
		t.Errorf("infected events = %d, want 2 (seed + target)", counts[KindInfected])
	}
	if counts[KindSendAttempt] != 1 || counts[KindSent] != 1 {
		t.Errorf("send events = %d/%d, want 1/1", counts[KindSendAttempt], counts[KindSent])
	}
	if counts[KindPatched] != 1 {
		t.Errorf("patched events = %d, want 1", counts[KindPatched])
	}

	events := rec.Events()
	prev := time.Duration(-1)
	for _, e := range events {
		if e.At < prev {
			t.Fatalf("events out of order: %v after %v", e.At, prev)
		}
		prev = e.At
	}
}

func TestRecorderLimit(t *testing.T) {
	t.Parallel()

	rec := NewRecorder(3)
	net, _ := tracedNet(t, rec)
	for i := 0; i < 10; i++ {
		if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() != 3 {
		t.Errorf("Len = %d, want 3 (limited)", rec.Len())
	}
	if !rec.Truncated() {
		t.Error("Truncated = false at limit")
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	t.Parallel()

	rec := NewRecorder(0)
	net, _ := tracedNet(t, rec)
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	ev := rec.Events()
	ev[0].Phone = 99
	if rec.Events()[0].Phone == 99 {
		t.Error("Events exposes internal storage")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	t.Parallel()

	rec := NewRecorder(0)
	net, sim := tracedNet(t, rec)
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1), mms.ValidTarget(2)}); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != rec.Len() {
		t.Fatalf("round trip changed count: %d -> %d", rec.Len(), len(back))
	}
	for i, e := range rec.Events() {
		if back[i] != e {
			t.Fatalf("event %d changed: %+v -> %+v", i, e, back[i])
		}
	}
}

func TestReadJSONLBadInput(t *testing.T) {
	t.Parallel()

	if _, err := ReadJSONL(strings.NewReader("{not json")); err == nil {
		t.Error("malformed input accepted")
	}
	events, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty input: %v, %v", events, err)
	}
}

func TestWriteCSV(t *testing.T) {
	t.Parallel()

	rec := NewRecorder(0)
	net, _ := tracedNet(t, rec)
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+rec.Len() {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+rec.Len())
	}
	if lines[0] != "hours,kind,phone,recipients" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestAttachNilNetwork(t *testing.T) {
	t.Parallel()

	if err := NewRecorder(0).Attach(nil, nil); err == nil {
		t.Error("nil shard set accepted")
	}
}

// TestAttachRejectsManyShards checks that a trace, which is one event log
// in event order, refuses a many-shard run with a clear error instead of
// recording a partial log.
func TestAttachRejectsManyShards(t *testing.T) {
	t.Parallel()

	topo, err := graph.BarabasiAlbertCSR(100, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := mms.NewShardSet(topo, make([]bool, 100), mms.DefaultConfig(), 2, time.Minute, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	err = ss.AttachResponse(NewRecorder(0), nil)
	if err == nil || !strings.Contains(err.Error(), "one-shard run") {
		t.Errorf("attach to a 2-shard set = %v, want a one-shard-run error", err)
	}
}

// TestFaultEventsRecorded checks that infrastructure fault occurrences —
// outage queueing and drain, phone power cycles — land in the trace with
// the documented kinds.
func TestFaultEventsRecorded(t *testing.T) {
	t.Parallel()

	b, err := graph.NewCSRBuilder(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mms.Config{
		DeliveryDelay:          rng.Constant{V: time.Second},
		ReadDelay:              rng.Constant{V: time.Second},
		AcceptanceFactor:       2,
		GatewayDetectThreshold: 1000,
		Faults: &faults.Schedule{
			Outages: []faults.Window{{Start: 0, End: time.Hour}},
			Churn: faults.Churn{
				UpTime:   rng.Constant{V: 2 * time.Hour},
				DownTime: rng.Constant{V: 30 * time.Minute},
			},
		},
	}
	sim := des.New()
	net, err := mms.NewCSR(g, []bool{true, true}, cfg, sim, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(0)
	if err := net.AttachResponse(rec, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Send(0, []mms.Target{mms.ValidTarget(1)}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(3 * time.Hour)

	counts := rec.CountByKind()
	if counts[KindOutageQueued] != 1 || counts[KindOutageDrained] != 1 {
		t.Errorf("outage events = %+v, want one queued and one drained", counts)
	}
	if counts[KindPhoneOff] == 0 || counts[KindPhoneOn] == 0 {
		t.Errorf("churn events missing: %+v", counts)
	}

	// Fault events round-trip through JSONL like any other kind.
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != rec.Len() {
		t.Errorf("round-trip length %d != %d", len(back), rec.Len())
	}
}
