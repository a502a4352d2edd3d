package rng

import (
	"fmt"
	"time"
)

// Dist describes a distribution of non-negative durations. The simulator
// expresses every random delay (delivery, read, inter-message wait, reboot
// interval, ...) as a Dist so that scenarios are fully declarative.
type Dist interface {
	// Sample draws one value using src.
	Sample(src *Source) time.Duration
	// Mean reports the distribution's expected value, used for sanity
	// checks and documentation output.
	Mean() time.Duration
	// String describes the distribution for reports.
	String() string
}

// Constant is a degenerate distribution that always returns V.
type Constant struct {
	V time.Duration
}

var _ Dist = Constant{}

// Sample implements Dist.
func (c Constant) Sample(*Source) time.Duration { return c.V }

// Mean implements Dist.
func (c Constant) Mean() time.Duration { return c.V }

func (c Constant) String() string { return fmt.Sprintf("const(%v)", c.V) }

// Exponential is an exponential distribution with the given mean.
type Exponential struct {
	MeanD time.Duration
}

var _ Dist = Exponential{}

// Sample implements Dist.
func (e Exponential) Sample(src *Source) time.Duration {
	return time.Duration(src.Exp(float64(e.MeanD)))
}

// Mean implements Dist.
func (e Exponential) Mean() time.Duration { return e.MeanD }

func (e Exponential) String() string { return fmt.Sprintf("exp(mean=%v)", e.MeanD) }

// UniformDist draws uniformly from [Lo, Hi).
type UniformDist struct {
	Lo, Hi time.Duration
}

var _ Dist = UniformDist{}

// Sample implements Dist.
func (u UniformDist) Sample(src *Source) time.Duration {
	return time.Duration(src.Uniform(float64(u.Lo), float64(u.Hi)))
}

// Mean implements Dist.
func (u UniformDist) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

func (u UniformDist) String() string { return fmt.Sprintf("uniform[%v,%v)", u.Lo, u.Hi) }
