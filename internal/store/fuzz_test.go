package store

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/mms"
	"repro/internal/virus"
)

// FuzzStoreDecode hammers the entry codec with arbitrary bytes. Two
// invariants, matching the store's corruption contract:
//
//  1. DecodeResult never panics, whatever the input — every length is
//     bounds-checked before use (the test binary would crash otherwise).
//  2. Anything that does decode is internally consistent: re-encoding it
//     produces a frame that decodes back to the same result. (Input bytes
//     need not be reproduced exactly — varints have non-minimal spellings
//     a fuzzer can reach — but the value round-trip must be stable.)
//
// Bad checksums never decoding is exercised separately and exhaustively
// by TestCodecDetectsEveryByteFlip.
func FuzzStoreDecode(f *testing.F) {
	valid, err := EncodeResult(testResultForFuzz())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(codecMagic))
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	future := append([]byte(nil), valid...)
	future[4] = codecVersion + 1
	f.Add(future)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		re, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		back, err := DecodeResult(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("value round-trip unstable:\nfirst  %+v\nsecond %+v", res, back)
		}
	})
}

// testResultForFuzz mirrors testResult without needing a *testing.T, so
// the fuzz seed corpus can reuse the same representative shape.
func testResultForFuzz() *core.Result {
	c := curve.New(1)
	_ = c.Append(30*time.Second, 2)
	_ = c.Append(5*time.Minute, 3.5)
	return &core.Result{
		Infections:        c,
		FinalInfected:     4,
		Network:           mms.Metrics{MessagesSent: 9, Deliveries: 8, Infections: 3},
		Engine:            virus.Stats{Activations: 3, MessagesSent: 9},
		GatewayDetected:   true,
		GatewayDetectedAt: time.Hour,
	}
}
