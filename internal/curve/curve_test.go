package curve

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func mustAppend(t *testing.T, c *Curve, at time.Duration, v float64) {
	t.Helper()
	if err := c.Append(at, v); err != nil {
		t.Fatal(err)
	}
}

func TestAtStepSemantics(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, time.Hour, 1)
	mustAppend(t, c, 3*time.Hour, 5)

	tests := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0},
		{time.Hour - time.Nanosecond, 0},
		{time.Hour, 1}, // right-continuous: jumps at the step time
		{2 * time.Hour, 1},
		{3 * time.Hour, 5},
		{100 * time.Hour, 5},
	}
	for _, tt := range tests {
		if got := c.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, 2*time.Hour, 1)
	err := c.Append(time.Hour, 2)
	if !errors.Is(err, ErrTimeOrder) {
		t.Errorf("out-of-order append returned %v, want ErrTimeOrder", err)
	}
}

func TestAppendSameInstantCollapses(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, time.Hour, 1)
	mustAppend(t, c, time.Hour, 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (same-instant collapse)", c.Len())
	}
	if got := c.At(time.Hour); got != 2 {
		t.Errorf("At(1h) = %v, want 2 (last value wins)", got)
	}
}

func TestFinalAndMax(t *testing.T) {
	t.Parallel()

	c := New(3)
	if c.Final() != 3 || c.Max() != 3 {
		t.Error("empty curve Final/Max should be Initial")
	}
	mustAppend(t, c, time.Hour, 10)
	mustAppend(t, c, 2*time.Hour, 7)
	if c.Final() != 7 {
		t.Errorf("Final = %v, want 7", c.Final())
	}
	if c.Max() != 10 {
		t.Errorf("Max = %v, want 10", c.Max())
	}
}

func TestAUC(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, time.Hour, 2)
	// value 0 on [0,1h), 2 on [1h, ...): AUC over 3h = 0*1 + 2*2 = 4.
	if got := c.AUC(3 * time.Hour); math.Abs(got-4) > 1e-9 {
		t.Errorf("AUC(3h) = %v, want 4", got)
	}
	if got := c.AUC(0); got != 0 {
		t.Errorf("AUC(0) = %v, want 0", got)
	}
	if got := c.AUC(30 * time.Minute); math.Abs(got) > 1e-9 {
		t.Errorf("AUC(30m) = %v, want 0", got)
	}
}

func TestAUCIgnoresStepsBeyondEnd(t *testing.T) {
	t.Parallel()

	c := New(1)
	mustAppend(t, c, 10*time.Hour, 100)
	if got := c.AUC(2 * time.Hour); math.Abs(got-2) > 1e-9 {
		t.Errorf("AUC(2h) = %v, want 2", got)
	}
}

func TestSample(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, time.Hour, 1)
	pts, err := c.Sample(4*time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("Sample returned %d points, want 5", len(pts))
	}
	if pts[0].V != 0 || pts[1].V != 1 || pts[4].V != 1 {
		t.Errorf("sampled values wrong: %+v", pts)
	}
	if pts[4].T != 4*time.Hour {
		t.Errorf("last grid point at %v, want 4h", pts[4].T)
	}
}

func TestSampleErrors(t *testing.T) {
	t.Parallel()

	c := New(0)
	if _, err := c.Sample(time.Hour, 0); err == nil {
		t.Error("zero grid size accepted")
	}
	if _, err := c.Sample(0, 4); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestAggregate(t *testing.T) {
	t.Parallel()

	a := New(0)
	mustAppend(t, a, time.Hour, 2)
	b := New(0)
	mustAppend(t, b, time.Hour, 4)

	band, err := Aggregate([]*Curve{a, b}, 2*time.Hour, 2)
	if err != nil {
		t.Fatal(err)
	}
	if band.Len() != 3 {
		t.Fatalf("band Len = %d, want 3", band.Len())
	}
	if band.Mean[0] != 0 {
		t.Errorf("mean at t=0 is %v, want 0", band.Mean[0])
	}
	if band.Mean[1] != 3 || band.Mean[2] != 3 {
		t.Errorf("mean after step = %v, want 3", band.Mean[1:])
	}
	if band.Min[1] != 2 || band.Max[1] != 4 {
		t.Errorf("min/max = %v/%v, want 2/4", band.Min[1], band.Max[1])
	}
	// Percentile envelope sits between the extrema and brackets the mean.
	if band.P10[1] < band.Min[1] || band.P90[1] > band.Max[1] {
		t.Errorf("P10/P90 = %v/%v outside min/max", band.P10[1], band.P90[1])
	}
	if band.P10[1] > band.Mean[1] || band.P90[1] < band.Mean[1] {
		t.Errorf("P10/P90 = %v/%v do not bracket mean %v", band.P10[1], band.P90[1], band.Mean[1])
	}
	if band.FinalMean() != 3 {
		t.Errorf("FinalMean = %v, want 3", band.FinalMean())
	}
}

func TestAggregateErrors(t *testing.T) {
	t.Parallel()

	if _, err := Aggregate(nil, time.Hour, 2); err == nil {
		t.Error("empty curve list accepted")
	}
	if _, err := Aggregate([]*Curve{New(0)}, time.Hour, 0); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := Aggregate([]*Curve{New(0)}, 0, 3); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestBandTimeToReachMean(t *testing.T) {
	t.Parallel()

	a := New(0)
	mustAppend(t, a, time.Hour, 10)
	band, err := Aggregate([]*Curve{a}, 2*time.Hour, 4)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := band.TimeToReachMean(10)
	if !ok || at != time.Hour {
		t.Errorf("TimeToReachMean(10) = %v, %v", at, ok)
	}
	if _, ok := band.TimeToReachMean(11); ok {
		t.Error("TimeToReachMean above max returned ok")
	}
}

func TestMonotoneAndPlateau(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, 1*time.Hour, 1)
	mustAppend(t, c, 2*time.Hour, 3)
	mustAppend(t, c, 5*time.Hour, 3)
	if !c.Monotone() {
		t.Error("non-decreasing curve reported non-monotone")
	}

	d := New(5)
	mustAppend(t, d, time.Hour, 3)
	if d.Monotone() {
		t.Error("decreasing curve reported monotone")
	}
}

func TestPointsReturnsCopy(t *testing.T) {
	t.Parallel()

	c := New(0)
	mustAppend(t, c, time.Hour, 1)
	pts := c.Points()
	pts[0].V = 99
	if c.At(time.Hour) != 1 {
		t.Error("mutating Points() result changed the curve")
	}
}

// Property: At on sorted random steps returns the value of the latest step
// not after the query time.
func TestQuickAtMatchesLinearScan(t *testing.T) {
	t.Parallel()

	f := func(rawTimes []uint16, q uint16) bool {
		times := make([]time.Duration, len(rawTimes))
		for i, v := range rawTimes {
			times[i] = time.Duration(v) * time.Second
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		c := New(-1)
		for i, at := range times {
			if err := c.Append(at, float64(i)); err != nil {
				return false
			}
		}
		query := time.Duration(q) * time.Second
		want := -1.0
		for i, at := range times {
			if at <= query {
				// Same-instant appends collapse, so find the last index at
				// this time.
				want = float64(i)
			}
		}
		// Account for collapse: linear scan above picks the last equal-time
		// index, which matches Append semantics.
		return c.At(query) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AUC is additive across the horizon split point.
func TestQuickAUCAdditive(t *testing.T) {
	t.Parallel()

	f := func(rawTimes []uint8, split uint8) bool {
		times := make([]time.Duration, len(rawTimes))
		for i, v := range rawTimes {
			times[i] = time.Duration(v) * time.Minute
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		c := New(1)
		for i, at := range times {
			if err := c.Append(at, float64(i%7)); err != nil {
				return false
			}
		}
		end := 256 * time.Minute
		mid := time.Duration(split) * time.Minute
		whole := c.AUC(end)
		left := c.AUC(mid)
		// Right side: integrate via sampling identity whole-left.
		right := whole - left
		// Recompute right directly from the step points.
		direct := 0.0
		prevT := mid
		prevV := c.At(mid)
		for _, p := range c.Points() {
			if p.T <= mid {
				continue
			}
			if p.T >= end {
				break
			}
			direct += prevV * float64(p.T-prevT)
			prevT, prevV = p.T, p.V
		}
		direct += prevV * float64(end-prevT)
		direct /= float64(time.Hour)
		return math.Abs(right-direct) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
