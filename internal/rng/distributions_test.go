package rng

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantDist(t *testing.T) {
	t.Parallel()

	d := Constant{V: 5 * time.Minute}
	s := New(1)
	for i := 0; i < 10; i++ {
		if got := d.Sample(s); got != 5*time.Minute {
			t.Fatalf("Constant.Sample = %v, want 5m", got)
		}
	}
	if d.Mean() != 5*time.Minute {
		t.Errorf("Constant.Mean = %v", d.Mean())
	}
	if d.String() == "" {
		t.Error("Constant.String empty")
	}
}

func TestExponentialDistMean(t *testing.T) {
	t.Parallel()

	d := Exponential{MeanD: time.Hour}
	s := New(2)
	var sum time.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
	}
	got := float64(sum) / n
	want := float64(time.Hour)
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("sample mean %v, want ~1h", time.Duration(got))
	}
	if d.Mean() != time.Hour {
		t.Errorf("Mean() = %v", d.Mean())
	}
}

func TestUniformDist(t *testing.T) {
	t.Parallel()

	d := UniformDist{Lo: time.Minute, Hi: 3 * time.Minute}
	s := New(3)
	var sum time.Duration
	const n = 50000
	for i := 0; i < n; i++ {
		v := d.Sample(s)
		if v < time.Minute || v >= 3*time.Minute {
			t.Fatalf("sample %v outside [1m,3m)", v)
		}
		sum += v
	}
	mean := time.Duration(float64(sum) / n)
	if mean < 115*time.Second || mean > 125*time.Second {
		t.Errorf("uniform mean %v, want ~2m", mean)
	}
	if d.Mean() != 2*time.Minute {
		t.Errorf("Mean() = %v", d.Mean())
	}
}

func TestUniformDistDegenerate(t *testing.T) {
	t.Parallel()

	d := UniformDist{Lo: time.Minute, Hi: time.Minute}
	if got := d.Sample(New(1)); got != time.Minute {
		t.Errorf("degenerate uniform sample = %v", got)
	}
}

// Property: exponential samples are never negative.
func TestQuickExponentialNonNegative(t *testing.T) {
	t.Parallel()

	s := New(7)
	f := func(meanSeconds uint16) bool {
		d := Exponential{MeanD: time.Duration(meanSeconds) * time.Second}
		return d.Sample(s) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
