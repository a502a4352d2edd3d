// Package maporder seeds violations for the map-order rule: range-over-map
// bodies that schedule events, draw randomness, append to outer slices, or
// accumulate floats. Loaded by the analyzer self-tests under a simulation
// package path; never built by the go tool.
package maporder

import (
	"sort"
	"time"

	"repro/internal/rng"
)

// Sim is a stand-in for the des kernel's scheduler.
type Sim struct{}

// ScheduleArgAt matches a scheduler method the rule looks for.
func (Sim) ScheduleArgAt(at time.Duration, h func(uint64), arg uint64) {}

// ScheduleArgAfter matches the other scheduler method the rule looks for.
func (Sim) ScheduleArgAfter(d time.Duration, h func(uint64), arg uint64) {}

// Schedules fires DES events at absolute times in map order.
func Schedules(sim Sim, pending map[int]time.Duration, h func(uint64)) {
	for id, at := range pending { // want `\[maporder\] range over map schedules DES events`
		sim.ScheduleArgAt(at, h, uint64(id))
	}
}

// SchedulesAfter fires DES events after delays in map order.
func SchedulesAfter(sim Sim, pending map[int]time.Duration, h func(uint64)) {
	for id, d := range pending { // want `\[maporder\] range over map schedules DES events`
		sim.ScheduleArgAfter(d, h, uint64(id))
	}
}

// Draws consumes RNG draws in map order.
func Draws(src *rng.Source, weights map[int]float64) {
	for range weights { // want `\[maporder\] range over map draws from an RNG stream`
		_ = src.Float64()
	}
}

// Appends freezes map order into a result slice.
func Appends(m map[int]bool) []int {
	var out []int
	for k := range m { // want `\[maporder\] range over map appends to an outer slice`
		out = append(out, k)
	}
	return out
}

// AppendsSorted is the sanctioned extract-then-sort idiom: no finding.
func AppendsSorted(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Accumulates sums floats in map order.
func Accumulates(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m { // want `\[maporder\] range over map accumulates floats in iteration order`
		total += v
	}
	return total
}

// Counts is order-insensitive: no finding.
func Counts(m map[int]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// AllowedAccumulate carries a justified suppression: no finding.
func AllowedAccumulate(m map[int]int) int {
	total := 0
	for _, v := range m {
		// Integer accumulation commutes exactly; no finding either way —
		// this loop also guards against false positives on int sums.
		total += v
	}
	return total
}
