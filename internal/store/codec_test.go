package store

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/mms"
	"repro/internal/virus"
)

// testResult builds a synthetic but fully populated result: every field
// the codec must carry, including exact non-integer floats.
func testResult(t *testing.T) *core.Result {
	t.Helper()
	c := curve.New(1)
	for _, p := range []struct {
		at time.Duration
		v  float64
	}{
		{30 * time.Second, 2},
		{5 * time.Minute, 3.5},
		{2 * time.Hour, 7.25},
	} {
		if err := c.Append(p.at, p.v); err != nil {
			t.Fatalf("build curve: %v", err)
		}
	}
	return &core.Result{
		Infections:    c,
		FinalInfected: 7,
		Network: mms.Metrics{
			MessagesSent: 41, Deliveries: 38, Reads: 20, Acceptances: 9,
			Infections: 6, Patched: 3, LegitSent: 100, PhonePowerCycles: 2,
		},
		Engine: virus.Stats{
			Activations: 6, MessagesAttempted: 44, MessagesSent: 41,
			SendsDeferred: 2, SendsBlocked: 1,
		},
		GatewayDetected:   true,
		GatewayDetectedAt: 90 * time.Minute,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	t.Parallel()

	want := testResult(t)
	data, err := EncodeResult(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
}

// realReplication runs a small real replication: Virus 3 on 120 phones
// with mean degree 12, a 12-hour horizon, seed 42.
func realReplication(tb testing.TB) *core.Result {
	tb.Helper()
	cfg := core.Default(virus.Virus3())
	cfg.Population = 120
	cfg.Graph.MeanDegree = 12
	cfg.Horizon = 12 * time.Hour
	res, err := core.RunOnce(cfg, 42)
	if err != nil {
		tb.Fatalf("replication: %v", err)
	}
	return res
}

// roundTrip encodes res and decodes the frame back: one op of
// BenchmarkCodecRoundTrip and of its pin.
func roundTrip(tb testing.TB, res *core.Result) (data []byte, got *core.Result) {
	tb.Helper()
	data, err := EncodeResult(res)
	if err != nil {
		tb.Fatalf("encode: %v", err)
	}
	got, err = DecodeResult(data)
	if err != nil {
		tb.Fatalf("decode: %v", err)
	}
	return data, got
}

// TestCodecRoundTripRealReplication is the property the persistent cache
// rests on: a result decoded from disk is indistinguishable from the
// recomputed one, so every downstream artifact (CSV bands, claim checks)
// is byte-identical either way.
func TestCodecRoundTripRealReplication(t *testing.T) {
	t.Parallel()

	want := realReplication(t)
	if _, got := roundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Errorf("real replication did not round-trip exactly")
	}
}

// TestCodecRoundTripPins pins the real replication's frame at 502 bytes,
// so a change to the framing or payload layout shows here before it
// invalidates on-disk stores, and the round trip at its recorded 17
// allocations.
func TestCodecRoundTripPins(t *testing.T) {
	res := realReplication(t)
	var data []byte
	allocs := testing.AllocsPerRun(100, func() { data, _ = roundTrip(t, res) })
	if len(data) != 502 {
		t.Errorf("encoded %d bytes, want 502", len(data))
	}
	if allocs > 17 {
		t.Errorf("round trip allocates %.0f times, want at most 17", allocs)
	}
}

func TestCodecDeterministic(t *testing.T) {
	t.Parallel()

	res := testResult(t)
	a, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// TestCodecDetectsEveryByteFlip is the core integrity guarantee: no
// single-byte corruption anywhere in a frame may decode successfully.
func TestCodecDetectsEveryByteFlip(t *testing.T) {
	t.Parallel()

	data, err := EncodeResult(testResult(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := DecodeResult(mut); err == nil {
			t.Errorf("flip of byte %d decoded without error", i)
		}
	}
}

func TestCodecDetectsEveryTruncation(t *testing.T) {
	t.Parallel()

	data, err := EncodeResult(testResult(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeResult(data[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded without error", n, len(data))
		}
	}
}

func TestCodecVersionMismatchIsNotCorruption(t *testing.T) {
	t.Parallel()

	data, err := EncodeResult(testResult(t))
	if err != nil {
		t.Fatal(err)
	}
	data[4] = codecVersion + 1
	_, err = DecodeResult(data)
	if !errors.Is(err, ErrCodecVersion) {
		t.Errorf("future-version frame: got %v, want ErrCodecVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Errorf("version mismatch must not be classed as corruption")
	}
}

func TestCodecNilCurve(t *testing.T) {
	t.Parallel()

	res := testResult(t)
	res.Infections = nil
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Infections != nil {
		t.Errorf("nil curve round-tripped to %+v", got.Infections)
	}
}

func TestCodecNilResult(t *testing.T) {
	t.Parallel()

	if _, err := EncodeResult(nil); err == nil {
		t.Error("encoding nil result succeeded")
	}
}
