// Package curve models right-continuous step functions of simulated time,
// the natural shape of an infection count: flat between events, jumping at
// each infection. It supports grid sampling, cross-replication aggregation,
// and the scalar measures used in the paper's analysis (final level,
// time-to-threshold, area under the curve).
package curve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// Point is a (time, value) pair.
type Point struct {
	T time.Duration
	V float64
}

// Curve is a right-continuous step function assembled from observations
// appended in non-decreasing time order. Before the first observation the
// curve's value is Initial (zero by default).
type Curve struct {
	Initial float64
	pts     []Point
}

// New returns an empty curve with the given initial value.
func New(initial float64) *Curve {
	return &Curve{Initial: initial}
}

// NewWithCapacity returns an empty curve with the given initial value and
// room for n observations before Append reallocates.
func NewWithCapacity(initial float64, n int) *Curve {
	return &Curve{Initial: initial, pts: make([]Point, 0, n)}
}

// ErrTimeOrder is returned when observations are appended out of order.
var ErrTimeOrder = errors.New("curve: observation time precedes previous observation")

// Append records that the curve takes value v from time t onward. Multiple
// observations at the same instant collapse to the last one. Times must be
// non-decreasing.
func (c *Curve) Append(t time.Duration, v float64) error {
	if n := len(c.pts); n > 0 {
		last := c.pts[n-1]
		if t < last.T {
			return fmt.Errorf("%w: %v < %v", ErrTimeOrder, t, last.T)
		}
		if t == last.T {
			c.pts[n-1].V = v
			return nil
		}
	}
	c.pts = append(c.pts, Point{T: t, V: v})
	return nil
}

// Len returns the number of stored steps.
func (c *Curve) Len() int { return len(c.pts) }

// Points returns a copy of the underlying steps.
func (c *Curve) Points() []Point {
	return append([]Point(nil), c.pts...)
}

// At evaluates the step function at time t.
func (c *Curve) At(t time.Duration) float64 {
	// Find the last point with T <= t.
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].T > t })
	if i == 0 {
		return c.Initial
	}
	return c.pts[i-1].V
}

// Final returns the value after the last step (Initial if empty).
func (c *Curve) Final() float64 {
	if len(c.pts) == 0 {
		return c.Initial
	}
	return c.pts[len(c.pts)-1].V
}

// Max returns the maximum value the curve attains, including Initial.
func (c *Curve) Max() float64 {
	m := c.Initial
	for _, p := range c.pts {
		m = math.Max(m, p.V)
	}
	return m
}

// AUC returns the integral of the step function from 0 to end. Steps beyond
// end are ignored; if the curve's last step precedes end, the final value
// extends to end.
func (c *Curve) AUC(end time.Duration) float64 {
	if end <= 0 {
		return 0
	}
	total := 0.0
	prevT := time.Duration(0)
	prevV := c.Initial
	for _, p := range c.pts {
		if p.T >= end {
			break
		}
		total += prevV * float64(p.T-prevT)
		prevT, prevV = p.T, p.V
	}
	total += prevV * float64(end-prevT)
	return total / float64(time.Hour) // hours as the canonical AUC unit
}

// Sample evaluates the curve on a uniform grid of n+1 points spanning
// [0, end] (inclusive of both endpoints). n must be positive.
func (c *Curve) Sample(end time.Duration, n int) ([]Point, error) {
	if n <= 0 {
		return nil, errors.New("curve: sample grid size must be positive")
	}
	if end <= 0 {
		return nil, errors.New("curve: sample horizon must be positive")
	}
	out := make([]Point, 0, n+1)
	for i := 0; i <= n; i++ {
		t := time.Duration(int64(end) * int64(i) / int64(n))
		out = append(out, Point{T: t, V: c.At(t)})
	}
	return out, nil
}

// Band is an aggregated curve across replications: for each grid time it
// carries the mean, a 95% confidence half-width, the 10th/90th percentile
// envelope, and the extrema.
type Band struct {
	Times []time.Duration
	Mean  []float64
	CI95  []float64
	P10   []float64
	P90   []float64
	Min   []float64
	Max   []float64
}

// Len returns the number of grid points in the band.
func (b *Band) Len() int { return len(b.Times) }

// FinalMean returns the mean value at the last grid point, or 0 when empty.
func (b *Band) FinalMean() float64 {
	if len(b.Mean) == 0 {
		return 0
	}
	return b.Mean[len(b.Mean)-1]
}

// TimeToReachMean returns the earliest grid time at which the band's mean
// reaches level.
func (b *Band) TimeToReachMean(level float64) (time.Duration, bool) {
	for i, m := range b.Mean {
		if m >= level {
			return b.Times[i], true
		}
	}
	return 0, false
}

// Aggregate samples every curve on a shared [0, end] grid of n+1 points and
// summarizes across curves per grid point. All curves contribute at every
// grid time (their step value at that time).
func Aggregate(curves []*Curve, end time.Duration, n int) (*Band, error) {
	if len(curves) == 0 {
		return nil, errors.New("curve: aggregate of zero curves")
	}
	if n <= 0 || end <= 0 {
		return nil, errors.New("curve: aggregate needs positive grid and horizon")
	}
	b := &Band{
		Times: make([]time.Duration, 0, n+1),
		Mean:  make([]float64, 0, n+1),
		CI95:  make([]float64, 0, n+1),
		P10:   make([]float64, 0, n+1),
		P90:   make([]float64, 0, n+1),
		Min:   make([]float64, 0, n+1),
		Max:   make([]float64, 0, n+1),
	}
	vals := make([]float64, len(curves))
	for i := 0; i <= n; i++ {
		t := time.Duration(int64(end) * int64(i) / int64(n))
		for j, c := range curves {
			vals[j] = c.At(t)
		}
		s := stats.Summarize(vals)
		// Quantile only errors on empty input or bad fractions, both
		// excluded here.
		p10, _ := stats.Quantile(vals, 0.10)
		p90, _ := stats.Quantile(vals, 0.90)
		b.Times = append(b.Times, t)
		b.Mean = append(b.Mean, s.Mean)
		b.CI95 = append(b.CI95, s.CIHalf95)
		b.P10 = append(b.P10, p10)
		b.P90 = append(b.P90, p90)
		b.Min = append(b.Min, s.Min)
		b.Max = append(b.Max, s.Max)
	}
	return b, nil
}

// Monotone reports whether the curve never decreases (true for cumulative
// infection counts without recovery).
func (c *Curve) Monotone() bool {
	prev := c.Initial
	for _, p := range c.pts {
		if p.V < prev {
			return false
		}
		prev = p.V
	}
	return true
}
