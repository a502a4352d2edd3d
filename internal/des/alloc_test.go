package des

import (
	"testing"
	"time"
)

// TestAllocsSteadyStateScheduleFire pins the arena design's core promise:
// once the arena has grown to the working-set size, a schedule/fire cycle
// through one long-lived handler performs zero heap allocations — the
// property the mms delivery path relies on.
func TestAllocsSteadyStateScheduleFire(t *testing.T) {
	sim := New()
	const batch = 512
	// Warm the arena and the calendar's chunk pool to the working-set size.
	for i := 0; i < batch; i++ {
		if _, err := sim.ScheduleArgAfter(time.Duration(i)*time.Millisecond, noop, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < batch; i++ {
			if _, err := sim.ScheduleArgAfter(time.Duration(i)*time.Millisecond, noop, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f per batch, want 0", allocs)
	}
}

// TestAllocsScheduleCancel pins zero allocations for the schedule+cancel
// round trip once the free list is primed.
func TestAllocsScheduleCancel(t *testing.T) {
	sim := New()
	h, err := sim.ScheduleArgAfter(time.Hour, noop, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Cancel(h)
	allocs := testing.AllocsPerRun(100, func() {
		h, err := sim.ScheduleArgAfter(time.Hour, noop, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.Cancel(h) {
			t.Fatal("cancel of pending event failed")
		}
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel allocates %.1f per op, want 0", allocs)
	}
}

// TestAllocsSelfPerpetuatingChain pins zero steady-state allocations for
// the dominant simulator pattern: each event scheduling its successor.
func TestAllocsSelfPerpetuatingChain(t *testing.T) {
	sim := New()
	var tick ArgHandler
	remaining := 0
	tick = func(s *Simulation, _ uint64) {
		remaining--
		if remaining > 0 {
			if _, err := s.ScheduleArgAfter(time.Millisecond, tick, 0); err != nil {
				panic(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		remaining = 100
		if _, err := sim.ScheduleArgAfter(0, tick, 0); err != nil {
			t.Fatal(err)
		}
		sim.Run()
	})
	if allocs != 0 {
		t.Errorf("self-perpetuating chain allocates %.1f per 100-event run, want 0", allocs)
	}
}

// TestStaleHandleAfterFireIsInert is the generation-counter contract: a
// handle whose event has fired must not cancel whatever event has since
// reused the arena slot.
func TestStaleHandleAfterFireIsInert(t *testing.T) {
	t.Parallel()

	sim := New()
	stale, err := sim.ScheduleArgAt(time.Second, noop, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// The freed slot is recycled by the next schedule.
	fired := false
	fresh, err := sim.ScheduleArgAt(2*time.Second, func(*Simulation, uint64) { fired = true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Cancel(stale) {
		t.Error("stale handle cancelled something after its event fired")
	}
	sim.Run()
	if !fired {
		t.Error("stale-handle Cancel killed the event that reused the slot")
	}
	if sim.Cancel(fresh) {
		t.Error("Cancel after fire returned true for the reused slot")
	}
}

// TestStaleHandleAfterCancelIsInert mirrors the fired case for cancelled
// events: the slot reuse must not resurrect the old handle.
func TestStaleHandleAfterCancelIsInert(t *testing.T) {
	t.Parallel()

	sim := New()
	stale, err := sim.ScheduleArgAt(time.Second, func(*Simulation, uint64) { t.Error("cancelled event fired") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Cancel(stale) {
		t.Fatal("first cancel failed")
	}
	fired := false
	if _, err := sim.ScheduleArgAt(time.Second, func(*Simulation, uint64) { fired = true }, 0); err != nil {
		t.Fatal(err)
	}
	if sim.Cancel(stale) {
		t.Error("second cancel through a stale handle returned true")
	}
	sim.Run()
	if !fired {
		t.Error("stale-handle Cancel killed the replacement event")
	}
}

// TestCancelDuringOwnHandler verifies a handler cancelling its own handle
// is a no-op: the event is already released when the handler runs.
func TestCancelDuringOwnHandler(t *testing.T) {
	t.Parallel()

	sim := New()
	var self Handle
	ran := false
	h, err := sim.ScheduleArgAt(time.Second, func(s *Simulation, _ uint64) {
		ran = true
		if s.Cancel(self) {
			t.Error("handler cancelled its own already-firing event")
		}
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	self = h
	sim.Run()
	if !ran {
		t.Fatal("handler did not run")
	}
}

// TestFIFOTieBreakSurvivesCancellation exercises the calendar's stable
// (at, seq) order under the hardest case: a large batch at one instant,
// with a cancelled subset punched out of the middle, plus arena-slot reuse
// in between. Survivors must fire in exact scheduling order. Cancelling
// every third event leaves the dead entries stored; cancelling two of
// every three crosses the half-dead mark, so the calendar is compacted and
// the replacements reuse the freed slots.
func TestFIFOTieBreakSurvivesCancellation(t *testing.T) {
	t.Parallel()

	for _, keep := range []func(int) bool{
		func(i int) bool { return i%3 != 0 },
		func(i int) bool { return i%3 == 0 },
	} {
		sim := New()
		const n = 200
		var fired []int
		record := func(_ *Simulation, arg uint64) { fired = append(fired, int(arg)) }
		handles := make([]Handle, n)
		for i := 0; i < n; i++ {
			h, err := sim.ScheduleArgAt(time.Second, record, uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
		}
		// Cancel the subset, then schedule replacements at the same
		// instant: they carry later seqs, so they must fire after every
		// survivor.
		cancelled := 0
		for i := 0; i < n; i++ {
			if keep(i) {
				continue
			}
			if !sim.Cancel(handles[i]) {
				t.Fatalf("cancel event %d failed", i)
			}
			cancelled++
		}
		for i := 0; i < cancelled; i++ {
			if _, err := sim.ScheduleArgAt(time.Second, record, uint64(n+i)); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
		want := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if keep(i) {
				want = append(want, i)
			}
		}
		for i := 0; i < cancelled; i++ {
			want = append(want, n+i)
		}
		if len(fired) != len(want) {
			t.Fatalf("fired %d events, want %d", len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("position %d fired event %d, want %d (full order %v)", i, fired[i], want[i], fired)
			}
		}
	}
}
