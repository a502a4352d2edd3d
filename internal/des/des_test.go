package des

import (
	"errors"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// noop is an event handler that does nothing.
func noop(*Simulation, uint64) {}

// TestEventSize pins the arena slot at 24 bytes: one handler, its
// argument and the generation. The (at, seq) key lives in the calendar
// entry instead, so placing and moving entries never touches the arena.
func TestEventSize(t *testing.T) {
	t.Parallel()

	if got := reflect.TypeOf(event{}).Size(); got != 24 {
		t.Errorf("event is %d bytes, want 24", got)
	}
}

// TestEntrySize pins the calendar entry at 24 bytes, the (at, seq) key
// and the arena slot, and the storage chunk at 392 bytes, 16 entries and
// a link word. Every pop moves entries between chunks, so they are the
// calendar's cache and memory footprint.
func TestEntrySize(t *testing.T) {
	t.Parallel()

	if got := reflect.TypeOf(entry{}).Size(); got != 24 {
		t.Errorf("entry is %d bytes, want 24", got)
	}
	if got := reflect.TypeOf(chunk{}).Size(); got != 392 {
		t.Errorf("chunk is %d bytes, want 392", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	t.Parallel()

	sim := New()
	var fired []time.Duration
	times := []time.Duration{5, 1, 9, 3, 3, 7, 0, 2}
	record := func(s *Simulation, _ uint64) { fired = append(fired, s.Now()) }
	for _, at := range times {
		if _, err := sim.ScheduleArgAt(at, record, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Errorf("events fired out of order: %v", fired)
	}
	if sim.Fired() != uint64(len(times)) {
		t.Errorf("Fired = %d, want %d", sim.Fired(), len(times))
	}
}

func TestFIFOTieBreak(t *testing.T) {
	t.Parallel()

	sim := New()
	var order []uint64
	record := func(_ *Simulation, arg uint64) { order = append(order, arg) }
	for i := 0; i < 10; i++ {
		if _, err := sim.ScheduleArgAt(time.Second, record, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	for i, v := range order {
		if v != uint64(i) {
			t.Fatalf("tie-break order %v, want scheduling order", order)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	t.Parallel()

	sim := New()
	if _, err := sim.ScheduleArgAt(time.Second, noop, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if sim.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", sim.Now())
	}
	_, err := sim.ScheduleArgAt(500*time.Millisecond, noop, 0)
	if !errors.Is(err, ErrPastEvent) {
		t.Errorf("scheduling in the past returned %v, want ErrPastEvent", err)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	t.Parallel()

	sim := New()
	if _, err := sim.ScheduleArgAt(0, nil, 0); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestScheduleAfterNegativeClamps(t *testing.T) {
	t.Parallel()

	sim := New()
	fired := false
	if _, err := sim.ScheduleArgAfter(-time.Second, func(*Simulation, uint64) { fired = true }, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if sim.Now() != 0 {
		t.Errorf("clock advanced to %v for clamped event", sim.Now())
	}
}

func TestCancel(t *testing.T) {
	t.Parallel()

	sim := New()
	fired := false
	h, err := sim.ScheduleArgAt(time.Second, func(*Simulation, uint64) { fired = true }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if sim.Cancel(h) {
		t.Error("second Cancel returned true")
	}
	sim.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelInvalidHandle(t *testing.T) {
	t.Parallel()

	sim := New()
	if sim.Cancel(Handle{}) {
		t.Error("Cancel of zero handle returned true")
	}
	var h Handle
	if h.Valid() {
		t.Error("zero handle reports valid")
	}
}

func TestCancelAfterFire(t *testing.T) {
	t.Parallel()

	sim := New()
	h, err := sim.ScheduleArgAt(0, noop, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if sim.Cancel(h) {
		t.Error("Cancel after fire returned true")
	}
}

// TestCancelHeavyHeapStaysBounded schedules far-future events and cancels
// them with no pops in between, the pattern that lazy cancellation alone
// would let grow without bound: compaction must keep the entries the
// calendar stores, live or dead, at most 2 × pending + 1, and Pending must
// count exactly the live events.
func TestCancelHeavyHeapStaysBounded(t *testing.T) {
	t.Parallel()

	sim := New()
	const n = 10000
	handles := make([]Handle, n)
	live := 0
	var fired []time.Duration
	record := func(s *Simulation, _ uint64) { fired = append(fired, s.Now()) }
	check := func(op string, i int) {
		t.Helper()
		if got := sim.Pending(); got != live {
			t.Fatalf("after %s %d: Pending = %d, want %d live events", op, i, got, live)
		}
		if sim.queued > 2*sim.Pending()+1 {
			t.Fatalf("after %s %d: calendar stores %d entries for %d pending", op, i, sim.queued, sim.Pending())
		}
	}
	for i := 0; i < n; i++ {
		h, err := sim.ScheduleArgAt(time.Duration(n-i)*time.Hour, record, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
		live++
		check("schedule", i)
		// Keep every 97th event; cancel the others, each one 5 schedules
		// after its own, so dead entries build up among live ones.
		if j := i - 5; j >= 0 && j%97 != 0 {
			if !sim.Cancel(handles[j]) {
				t.Fatalf("cancel of pending event %d failed", j)
			}
			live--
			check("cancel", j)
		}
	}
	sim.Run()
	if got, want := sim.Fired(), uint64(live); got != want || len(fired) != live {
		t.Errorf("fired %d events (%d handler calls), want the %d never cancelled", got, len(fired), want)
	}
	if !slices.IsSorted(fired) {
		t.Error("survivors of compaction fired out of time order")
	}
	if sim.Pending() != 0 || sim.queued != 0 {
		t.Errorf("after Run: Pending = %d, calendar stores %d entries", sim.Pending(), sim.queued)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	t.Parallel()

	sim := New()
	var fired []uint64
	record := func(_ *Simulation, arg uint64) { fired = append(fired, arg) }
	handles := make([]Handle, 0, 20)
	for i := 0; i < 20; i++ {
		h, err := sim.ScheduleArgAt(time.Duration(i)*time.Second, record, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel all odd events.
	for i := 1; i < 20; i += 2 {
		if !sim.Cancel(handles[i]) {
			t.Fatalf("Cancel event %d failed", i)
		}
	}
	sim.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for _, v := range fired {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	t.Parallel()

	sim := New()
	fired := 0
	count := func(*Simulation, uint64) { fired++ }
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 10 * time.Second} {
		if _, err := sim.ScheduleArgAt(at, count, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(5 * time.Second)
	if fired != 2 {
		t.Errorf("fired %d events by t=5s, want 2", fired)
	}
	if sim.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", sim.Now())
	}
	if sim.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", sim.Pending())
	}
	sim.RunUntil(20 * time.Second)
	if fired != 3 {
		t.Errorf("fired %d events by t=20s, want 3", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	t.Parallel()

	sim := New()
	fired := false
	if _, err := sim.ScheduleArgAt(5*time.Second, func(*Simulation, uint64) { fired = true }, 0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(5 * time.Second)
	if !fired {
		t.Error("event exactly at the horizon did not fire")
	}
}

func TestHandlerSchedulesFollowUps(t *testing.T) {
	t.Parallel()

	sim := New()
	count := 0
	var tick ArgHandler
	tick = func(s *Simulation, _ uint64) {
		count++
		if count < 100 {
			if _, err := s.ScheduleArgAfter(time.Minute, tick, 0); err != nil {
				t.Errorf("reschedule: %v", err)
			}
		}
	}
	if _, err := sim.ScheduleArgAt(0, tick, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if count != 100 {
		t.Errorf("self-rescheduling chain ran %d times, want 100", count)
	}
	if want := 99 * time.Minute; sim.Now() != want {
		t.Errorf("Now = %v, want %v", sim.Now(), want)
	}
}

// Property: for any batch of scheduled times, execution order is a sorted
// permutation of the input.
func TestQuickExecutionOrderSorted(t *testing.T) {
	t.Parallel()

	f := func(offsets []uint16) bool {
		sim := New()
		var fired []time.Duration
		record := func(s *Simulation, _ uint64) { fired = append(fired, s.Now()) }
		for _, o := range offsets {
			if _, err := sim.ScheduleArgAt(time.Duration(o)*time.Millisecond, record, 0); err != nil {
				return false
			}
		}
		sim.Run()
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset leaves exactly the complement firing.
func TestQuickCancelSubset(t *testing.T) {
	t.Parallel()

	f := func(n uint8, mask uint32) bool {
		count := int(n%32) + 1
		sim := New()
		fired := make([]bool, count)
		mark := func(_ *Simulation, arg uint64) { fired[arg] = true }
		handles := make([]Handle, count)
		for i := 0; i < count; i++ {
			h, err := sim.ScheduleArgAt(time.Duration(i)*time.Second, mark, uint64(i))
			if err != nil {
				return false
			}
			handles[i] = h
		}
		for i := 0; i < count; i++ {
			if mask&(1<<uint(i)) != 0 {
				sim.Cancel(handles[i])
			}
		}
		sim.Run()
		for i := 0; i < count; i++ {
			cancelled := mask&(1<<uint(i)) != 0
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestArgHandlerOrderingAndPayload checks that events fire in exact
// (at, seq) order, FIFO among equal times even across distinct handlers,
// and deliver their payloads verbatim.
func TestArgHandlerOrderingAndPayload(t *testing.T) {
	t.Parallel()

	sim := New()
	var order []uint64
	record := func(_ *Simulation, arg uint64) { order = append(order, arg) }
	recordHigh := func(_ *Simulation, arg uint64) { order = append(order, arg<<32) }
	schedule := []struct {
		at  time.Duration
		h   ArgHandler
		arg uint64
	}{
		{2 * time.Second, record, 2},
		{1 * time.Second, record, 1},
		// Equal times: the event scheduled first wins the FIFO tie,
		// whichever handler either carries.
		{3 * time.Second, recordHigh, 3},
		{3 * time.Second, record, 4},
		{4 * time.Second, record, 5},
		{4 * time.Second, recordHigh, 6},
		{5 * time.Second, record, 1<<64 - 1},
	}
	for _, e := range schedule {
		if _, err := sim.ScheduleArgAt(e.at, e.h, e.arg); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	want := []uint64{1, 2, 3 << 32, 4, 5, 6 << 32, 1<<64 - 1}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestArgHandlerCancelAndValidation checks handle semantics and input
// validation for the argument-carrying schedule calls.
func TestArgHandlerCancelAndValidation(t *testing.T) {
	t.Parallel()

	sim := New()
	fired := false
	h, err := sim.ScheduleArgAfter(time.Second, func(*Simulation, uint64) { fired = true }, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Cancel(h) {
		t.Fatal("cancel of pending arg event failed")
	}
	sim.Run()
	if fired {
		t.Fatal("cancelled arg event fired")
	}
	if _, err := sim.ScheduleArgAt(time.Second, nil, 0); err == nil {
		t.Fatal("nil ArgHandler accepted")
	}
	sim.RunUntil(time.Minute)
	if _, err := sim.ScheduleArgAt(time.Second, func(*Simulation, uint64) {}, 0); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("past arg event: got %v, want ErrPastEvent", err)
	}
}
