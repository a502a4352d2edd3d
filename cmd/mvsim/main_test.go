package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestParseImmunize(t *testing.T) {
	t.Parallel()

	tests := []struct {
		in        string
		dev, depl time.Duration
		wantErr   bool
	}{
		{"24h,6h", 24 * time.Hour, 6 * time.Hour, false},
		{"48h,1h", 48 * time.Hour, time.Hour, false},
		{"24h", 0, 0, true},
		{"24h,6h,1h", 0, 0, true},
		{"x,6h", 0, 0, true},
		{"24h,y", 0, 0, true},
		{"", 0, 0, true},
	}
	for _, tt := range tests {
		dev, depl, err := parseImmunize(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseImmunize(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && (dev != tt.dev || depl != tt.depl) {
			t.Errorf("parseImmunize(%q) = %v, %v; want %v, %v", tt.in, dev, depl, tt.dev, tt.depl)
		}
	}
}

func TestParseImmunizeRejectsNonPositive(t *testing.T) {
	t.Parallel()

	for _, in := range []string{"0s,6h", "24h,0s", "-1h,6h", "24h,-6h"} {
		if _, _, err := parseImmunize(in); err == nil {
			t.Errorf("parseImmunize(%q) = nil error, want rejection", in)
		}
	}
}

func TestParseOutages(t *testing.T) {
	t.Parallel()

	got, err := parseOutages("0s,6h;12h,1h,0.25")
	if err != nil {
		t.Fatalf("parseOutages: %v", err)
	}
	want := []faults.Window{
		{Start: 0, End: 6 * time.Hour},
		{Start: 12 * time.Hour, End: 13 * time.Hour, Capacity: 0.25},
	}
	if len(got) != len(want) {
		t.Fatalf("parseOutages = %v windows, want %v", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	for _, in := range []string{"", "6h", "0s,6h,0.25,9", "x,6h", "0s,y", "0s,0s", "0s,-1h", "0s,6h,z"} {
		if _, err := parseOutages(in); err == nil {
			t.Errorf("parseOutages(%q) = nil error, want rejection", in)
		}
	}
}

func TestParseRetry(t *testing.T) {
	t.Parallel()

	got, err := parseRetry("3,30s,10m,0.2")
	if err != nil {
		t.Fatalf("parseRetry: %v", err)
	}
	want := faults.RetryPolicy{MaxAttempts: 3, Base: 30 * time.Second, Max: 10 * time.Minute, Jitter: 0.2}
	if got != want {
		t.Errorf("parseRetry = %+v, want %+v", got, want)
	}
	if got, err := parseRetry("2,1m"); err != nil || got.MaxAttempts != 2 || got.Base != time.Minute {
		t.Errorf("parseRetry(2,1m) = %+v, %v", got, err)
	}

	for _, in := range []string{"", "3", "3,30s,10m,0.2,x", "x,30s", "3,y", "3,30s,z", "3,30s,10m,w"} {
		if _, err := parseRetry(in); err == nil {
			t.Errorf("parseRetry(%q) = nil error, want rejection", in)
		}
	}
}

func TestParseChurn(t *testing.T) {
	t.Parallel()

	got, err := parseChurn("12h,20m")
	if err != nil {
		t.Fatalf("parseChurn: %v", err)
	}
	if got.UpTime.Mean() != 12*time.Hour || got.DownTime.Mean() != 20*time.Minute {
		t.Errorf("parseChurn means = %v, %v; want 12h, 20m", got.UpTime.Mean(), got.DownTime.Mean())
	}

	for _, in := range []string{"", "12h", "12h,20m,5m", "x,20m", "12h,y", "0s,20m", "12h,0s"} {
		if _, err := parseChurn(in); err == nil {
			t.Errorf("parseChurn(%q) = nil error, want rejection", in)
		}
	}
}

func TestParseFaults(t *testing.T) {
	t.Parallel()

	sched, err := parseFaults("", "", "", 0)
	if err != nil {
		t.Fatalf("parseFaults(empty): %v", err)
	}
	if sched != nil {
		t.Errorf("parseFaults(empty) = %v, want nil schedule", sched)
	}

	sched, err = parseFaults("0s,6h", "3,30s", "12h,20m", time.Minute)
	if err != nil {
		t.Fatalf("parseFaults: %v", err)
	}
	if !sched.Active() {
		t.Error("parseFaults: schedule not active")
	}
	if sched.DrainSpread != time.Minute {
		t.Errorf("DrainSpread = %v, want 1m", sched.DrainSpread)
	}

	// Overlapping windows are rejected by whole-schedule validation.
	if _, err := parseFaults("0s,6h;3h,1h", "", "", 0); err == nil {
		t.Error("parseFaults with overlapping windows = nil error, want rejection")
	}
	// An outage capacity of 1 is not a fault.
	if _, err := parseFaults("0s,6h,1.0", "", "", 0); err == nil {
		t.Error("parseFaults with capacity 1.0 = nil error, want rejection")
	}
}

// TestFlagValidation checks that bad flag combinations fail at parse time
// with an actionable message, before any replication runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-virus", "5"}, "virus 5 outside 1-4"},
		{[]string{"-jobs", "0"}, "-jobs must be >= 1"},
		{[]string{"-reps", "2", "-min-reps", "3"}, "min-reps 3 outside [0,2]"},
		{[]string{"-seed", "0"}, "-seed must be >= 1"},
		{[]string{"-detector", "1.5"}, "detector accuracy"},
		{[]string{"-resume"}, "-resume needs -storedir"},
		{[]string{"-grid", "0"}, "-grid must be >= 1"},
		{[]string{"-scan", "-1h"}, "-scan -1h0m0s negative"},
		{[]string{"-monitor", "-5m"}, "-monitor -5m0s negative"},
		{[]string{"-hours", "-1"}, "-hours -1 outside"},
		{[]string{"-hours", "NaN"}, "-hours NaN outside"},
		{[]string{"-hours", "1e300"}, "outside"},
		{[]string{"-shards", "0"}, "-shards must be >= 1"},
		{[]string{"-shards", "-2"}, "-shards must be >= 1"},
		{[]string{"-trace", "t.jsonl", "-topology", "ba", "-shards", "2"}, "-trace needs a one-shard run"},
		{[]string{"-outage", "nope"}, "outage"},
		{[]string{"-outage", "0s,6h", "-topology", "ba", "-shards", "2"}, "fault injection"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	// The power-law topology runs sharded like any other.
	accepted := []string{"-shards", "2", "-population", "200", "-reps", "1", "-hours", "2"}
	if err := run(accepted); err != nil {
		t.Errorf("run(%q) = %v, want success", accepted, err)
	}
}
