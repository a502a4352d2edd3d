package faults

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestScheduleValidate(t *testing.T) {
	t.Parallel()

	hour := time.Hour
	tests := []struct {
		name    string
		s       *Schedule
		wantErr bool
	}{
		{"nil schedule", nil, false},
		{"zero schedule", &Schedule{}, false},
		{"one window", &Schedule{Outages: []Window{{Start: hour, End: 2 * hour}}}, false},
		{"degraded window", &Schedule{Outages: []Window{{End: hour, Capacity: 0.5}}}, false},
		{"inverted window", &Schedule{Outages: []Window{{Start: 2 * hour, End: hour}}}, true},
		{"empty window", &Schedule{Outages: []Window{{Start: hour, End: hour}}}, true},
		{"negative start", &Schedule{Outages: []Window{{Start: -hour, End: hour}}}, true},
		{"capacity one", &Schedule{Outages: []Window{{End: hour, Capacity: 1}}}, true},
		{"negative capacity", &Schedule{Outages: []Window{{End: hour, Capacity: -0.1}}}, true},
		{"overlapping windows", &Schedule{Outages: []Window{
			{Start: 0, End: 2 * hour}, {Start: hour, End: 3 * hour},
		}}, true},
		{"unsorted windows", &Schedule{Outages: []Window{
			{Start: 5 * hour, End: 6 * hour}, {Start: 0, End: hour},
		}}, true},
		{"touching windows", &Schedule{Outages: []Window{
			{Start: 0, End: hour}, {Start: hour, End: 2 * hour},
		}}, false},
		{"retry ok", &Schedule{Retry: RetryPolicy{MaxAttempts: 3, Base: time.Minute}}, false},
		{"retry no base", &Schedule{Retry: RetryPolicy{MaxAttempts: 3}}, true},
		{"retry negative attempts", &Schedule{Retry: RetryPolicy{MaxAttempts: -1, Base: time.Minute}}, true},
		{"retry cap below base", &Schedule{Retry: RetryPolicy{MaxAttempts: 1, Base: time.Minute, Max: time.Second}}, true},
		{"retry jitter one", &Schedule{Retry: RetryPolicy{MaxAttempts: 1, Base: time.Minute, Jitter: 1}}, true},
		{"churn ok", &Schedule{Churn: Churn{
			UpTime:   rng.Exponential{MeanD: 12 * hour},
			DownTime: rng.Exponential{MeanD: 20 * time.Minute},
		}}, false},
		{"churn half configured", &Schedule{Churn: Churn{UpTime: rng.Constant{V: hour}}}, true},
		{"churn zero mean", &Schedule{Churn: Churn{
			UpTime:   rng.Constant{V: 0},
			DownTime: rng.Constant{V: hour},
		}}, true},
		{"negative drain spread", &Schedule{DrainSpread: -time.Minute}, true},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if err := tt.s.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestWindowAt(t *testing.T) {
	t.Parallel()

	s := &Schedule{Outages: []Window{
		{Start: time.Hour, End: 2 * time.Hour},
		{Start: 5 * time.Hour, End: 6 * time.Hour, Capacity: 0.5},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		at   time.Duration
		want bool
		cap  float64
	}{
		{0, false, 0},
		{time.Hour, true, 0}, // inclusive start
		{90 * time.Minute, true, 0},
		{2 * time.Hour, false, 0}, // exclusive end
		{3 * time.Hour, false, 0},
		{5*time.Hour + time.Minute, true, 0.5},
		{7 * time.Hour, false, 0},
	}
	for _, tt := range tests {
		w, ok := s.WindowAt(tt.at)
		if ok != tt.want {
			t.Errorf("WindowAt(%v) in-window = %v, want %v", tt.at, ok, tt.want)
			continue
		}
		if ok && w.Capacity != tt.cap {
			t.Errorf("WindowAt(%v) capacity = %v, want %v", tt.at, w.Capacity, tt.cap)
		}
	}
	var nilSched *Schedule
	if _, ok := nilSched.WindowAt(time.Hour); ok {
		t.Error("nil schedule reported a window")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	t.Parallel()

	p := RetryPolicy{MaxAttempts: 10, Base: time.Minute, Max: 8 * time.Minute}
	src := rng.New(1)
	want := []time.Duration{
		time.Minute, 2 * time.Minute, 4 * time.Minute,
		8 * time.Minute, 8 * time.Minute, 8 * time.Minute,
	}
	for i, w := range want {
		if got := p.Backoff(i+1, src); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Attempt below 1 clamps to the first backoff.
	if got := p.Backoff(0, src); got != time.Minute {
		t.Errorf("Backoff(0) = %v, want %v", got, time.Minute)
	}
}

// TestBackoffFloor pins the one-millisecond floor under a sub-millisecond
// base.
func TestBackoffFloor(t *testing.T) {
	t.Parallel()

	p := RetryPolicy{MaxAttempts: 1, Base: time.Microsecond}
	if got := p.Backoff(1, rng.New(1)); got != time.Millisecond {
		t.Errorf("Backoff(1) = %v, want %v", got, time.Millisecond)
	}
}

func TestBackoffJitterBoundedAndDeterministic(t *testing.T) {
	t.Parallel()

	p := RetryPolicy{MaxAttempts: 5, Base: time.Minute, Jitter: 0.5}
	a, b := rng.New(7), rng.New(7)
	for i := 1; i <= 100; i++ {
		attempt := 1 + i%5
		da := p.Backoff(attempt, a)
		db := p.Backoff(attempt, b)
		if da != db {
			t.Fatalf("same source state, different backoff: %v vs %v", da, db)
		}
		nominal := p.Base << (attempt - 1)
		lo := time.Duration(0.5 * float64(nominal))
		hi := time.Duration(1.5 * float64(nominal))
		if da < lo || da >= hi {
			t.Fatalf("Backoff(%d) = %v outside [%v,%v)", attempt, da, lo, hi)
		}
	}
}

func TestActiveAndString(t *testing.T) {
	t.Parallel()

	var nilSched *Schedule
	if nilSched.Active() {
		t.Error("nil schedule active")
	}
	if (&Schedule{}).Active() {
		t.Error("zero schedule active")
	}
	s := &Schedule{
		Outages: []Window{{Start: time.Hour, End: 7 * time.Hour}},
		Retry:   RetryPolicy{MaxAttempts: 3, Base: 30 * time.Second},
		Churn: Churn{
			UpTime:   rng.Exponential{MeanD: 12 * time.Hour},
			DownTime: rng.Exponential{MeanD: 20 * time.Minute},
		},
	}
	if !s.Active() {
		t.Error("configured schedule inactive")
	}
	str := s.String()
	for _, want := range []string{"outage", "retry", "churn"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}
