package des

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// BenchmarkScheduleAndFire measures raw event throughput: schedule and
// execute batches of 1,000 no-op events.
func BenchmarkScheduleAndFire(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := New()
		for j := 0; j < 1000; j++ {
			if _, err := sim.ScheduleArgAt(time.Duration(j)*time.Millisecond, noop, uint64(j)); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
	}
}

// BenchmarkScheduleAndFireWarm measures steady-state throughput: the same
// batch against one long-lived simulation, so the arena free list (not
// allocator growth) serves every schedule. This is the regime replications
// run in after their first few events.
func BenchmarkScheduleAndFireWarm(b *testing.B) {
	sim := New()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			if _, err := sim.ScheduleArgAfter(time.Duration(j)*time.Millisecond, noop, uint64(j)); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
	}
}

// BenchmarkScheduleCancel measures schedule+cancel round trips.
func BenchmarkScheduleCancel(b *testing.B) {
	sim := New()
	for i := 0; i < b.N; i++ {
		h, err := sim.ScheduleArgAt(time.Hour, noop, 0)
		if err != nil {
			b.Fatal(err)
		}
		sim.Cancel(h)
	}
}

// BenchmarkSelfPerpetuatingChain measures the common simulator pattern of
// events scheduling their successors.
func BenchmarkSelfPerpetuatingChain(b *testing.B) {
	sim := New()
	count := 0
	var tick ArgHandler
	tick = func(s *Simulation, _ uint64) {
		count++
		if count < b.N {
			if _, err := s.ScheduleArgAfter(time.Millisecond, tick, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := sim.ScheduleArgAt(0, tick, 0); err != nil {
		b.Fatal(err)
	}
	sim.Run()
}

// BenchmarkCalendarMixed measures the calendar the way the paper workload
// drives it: a steady calendar of about 2,048 pending events (the paper
// workload's mean queue length, measured at 2,253) where each fired event
// schedules a successor an exponential delay later, so pushes land at
// random positions rather than in time order. One op is one pop plus one
// push.
func BenchmarkCalendarMixed(b *testing.B) { benchCalendar(b, 2048) }

// BenchmarkCalendarScale is BenchmarkCalendarMixed at 9,338 pending
// events, the mean per-shard queue length of the 10^6-phone, 32-shard
// outbreak (perfbench's scale-outbreak), where the calendar no longer
// fits in L1 and shares L2 with the shard's phone state.
func BenchmarkCalendarScale(b *testing.B) { benchCalendar(b, 9338) }

// benchCalendar times pops and pushes against a steady calendar of
// pending events. The delays are drawn up front so the op times the
// calendar, not the generator.
func benchCalendar(b *testing.B, pending int) {
	src := rng.New(1)
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = rng.Exponential{MeanD: 30 * time.Minute}.Sample(src)
	}
	next := 0
	var tick ArgHandler
	tick = func(s *Simulation, _ uint64) {
		if _, err := s.ScheduleArgAfter(delays[next%len(delays)], tick, 0); err != nil {
			b.Fatal(err)
		}
		next++
	}
	sim := New()
	for i := 0; i < pending; i++ {
		tick(sim, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.step()
	}
}
