package main

import (
	"testing"
	"time"
)

// FuzzFlagParsing drives the fault-injection and immunization flag
// parsers (-outage, -retry, -churn, -drain, -immunize) and the -hours and
// -shards check with arbitrary input. The parsers are the boundary
// between user-typed strings and the validated simulation configuration,
// so the invariants are:
//
//  1. no input panics a parser;
//  2. a parseFaults success yields either nil (no active fault) or a
//     schedule that passes faults.Schedule.Validate — a bad combination
//     must fail at the flag boundary, never deep inside a replication;
//  3. a parseImmunize success yields strictly positive durations;
//  4. a checkHorizonShards success means a non-negative horizon that
//     fits a time.Duration and at least one shard.
//
// Seed inputs covering every accepted grammar live under
// testdata/fuzz/FuzzFlagParsing; run `go test -fuzz=FuzzFlagParsing
// ./cmd/mvsim` to explore beyond them.
func FuzzFlagParsing(f *testing.F) {
	seeds := []struct {
		outage, retry, churn, immunize string
		drainNs                        int64
		hours                          float64
		shards                         int
	}{
		{"", "", "", "", 0, 0, 1},
		{"0s,6h", "", "", "", 0, 24, 1},
		{"2h,4h,0.25;12h,1h", "3,30s,10m,0.2", "12h,20m", "24h,6h", int64(15 * time.Minute), 0.5, 4},
		{"1h,30m,1.5", "0,0s", "-1h,20m", "24h", -1, -1, 0},
		{";,;", "1", ",", ",", 42, 1e300, -3},
	}
	for _, s := range seeds {
		f.Add(s.outage, s.retry, s.churn, s.immunize, s.drainNs, s.hours, s.shards)
	}

	f.Fuzz(func(t *testing.T, outage, retry, churn, immunize string, drainNs int64, hours float64, shards int) {
		sched, err := parseFaults(outage, retry, churn, time.Duration(drainNs))
		if err == nil && sched != nil {
			if !sched.Active() {
				t.Errorf("parseFaults(%q, %q, %q, %d) returned an inactive non-nil schedule",
					outage, retry, churn, drainNs)
			}
			if verr := sched.Validate(); verr != nil {
				t.Errorf("parseFaults(%q, %q, %q, %d) accepted a schedule Validate rejects: %v",
					outage, retry, churn, drainNs, verr)
			}
		}
		if outage == "" && retry == "" && churn == "" && err == nil && sched != nil && len(sched.Outages) > 0 {
			t.Errorf("outage windows materialized from empty flags")
		}

		if immunize != "" {
			dev, deploy, err := parseImmunize(immunize)
			if err == nil && (dev <= 0 || deploy <= 0) {
				t.Errorf("parseImmunize(%q) accepted non-positive durations dev=%v deploy=%v",
					immunize, dev, deploy)
			}
		}

		if checkHorizonShards(hours, shards) == nil &&
			(!(hours >= 0) || time.Duration(hours*float64(time.Hour)) < 0 || shards < 1) {
			t.Errorf("checkHorizonShards(%v, %d) accepted a negative, unrepresentable or shardless run", hours, shards)
		}
	})
}
