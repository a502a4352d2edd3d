// Package des is a discrete-event simulation kernel.
//
// It substitutes for the simulation engine of the Möbius tool used in the
// paper: a monotone virtual clock, an event calendar ordered by firing time
// with stable FIFO tie-breaking, handles for cancellation, and run loops
// that drain the calendar or stop at a time horizon. Virtual time is
// expressed as time.Duration offsets from the simulation start, which is all
// the models need and keeps arithmetic exact.
//
// The event calendar is an internal 4-ary index-tracking heap over a pooled
// event arena (see DESIGN.md §9): events live in a flat slice, fired and
// cancelled slots are recycled through a free list, and the heap orders
// arena indices rather than boxed pointers. Steady-state scheduling
// therefore performs zero allocations, and handles carry a generation
// counter so a handle that outlives its event (fired, cancelled, or the
// slot since reused) is inert rather than aliasing the new occupant.
//
// There is one event type: an ArgHandler plus a uint64 argument. Models
// create one long-lived handler per event kind and pack the per-event
// state (phone ids, attempt counters, queue slots) into the argument, so
// no event allocates a closure and the event stays 40 bytes.
package des

import (
	"errors"
	"fmt"
	"time"
)

// ArgHandler is the callback executed when an event fires. It receives the
// simulation, to schedule follow-up events, and the event's argument.
type ArgHandler func(sim *Simulation, arg uint64)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles are generation-counted: once the event fires
// or is cancelled, the handle goes stale and every later operation through
// it is a no-op, even if the kernel has recycled the underlying arena slot
// for a new event.
type Handle struct {
	slot uint32 // arena index + 1; 0 marks the invalid zero Handle
	gen  uint32 // must match the slot's generation to dereference
}

// Valid reports whether the handle refers to an event that was scheduled
// (it may have fired or been cancelled since).
func (h Handle) Valid() bool { return h.slot != 0 }

// event is one arena slot. Slots are recycled: gen increments every time
// the slot is released, invalidating outstanding handles.
type event struct {
	at      time.Duration
	seq     uint64 // schedule order; breaks ties FIFO
	arg     uint64 // payload passed to handler
	heapIdx int32  // index into Simulation.heap, -1 when not queued
	gen     uint32
	handler ArgHandler
}

// Simulation is a single-threaded discrete-event simulation. It is not safe
// for concurrent use; run one Simulation per goroutine.
type Simulation struct {
	now     time.Duration
	arena   []event  // pooled event storage
	heap    []uint32 // arena indices, 4-ary heap ordered by (at, seq)
	free    []uint32 // released arena slots awaiting reuse
	nextSeq uint64
	fired   uint64
}

// New returns an empty simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Simulation) Pending() int { return len(s.heap) }

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// ScheduleArgAt schedules h to fire at absolute virtual time at, carrying
// arg. It returns an error if at precedes the current time.
func (s *Simulation) ScheduleArgAt(at time.Duration, h ArgHandler, arg uint64) (Handle, error) {
	if h == nil {
		return Handle{}, errors.New("des: nil handler")
	}
	if at < s.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{heapIdx: -1})
		slot = uint32(len(s.arena) - 1)
	}
	s.nextSeq++
	ev := &s.arena[slot]
	ev.at = at
	ev.seq = s.nextSeq
	ev.arg = arg
	ev.handler = h
	ev.heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, slot)
	s.siftUp(len(s.heap) - 1)
	return Handle{slot: slot + 1, gen: ev.gen}, nil
}

// ScheduleArgAfter schedules h to fire delay after the current time,
// carrying arg. Negative delays are clamped to zero (fire "now", after
// currently executing events).
func (s *Simulation) ScheduleArgAfter(delay time.Duration, h ArgHandler, arg uint64) (Handle, error) {
	return s.ScheduleArgAt(s.now+max(delay, 0), h, arg)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired, was cancelled, or the handle is
// invalid or stale — a stale handle never touches an event that reused the
// slot).
func (s *Simulation) Cancel(h Handle) bool {
	if h.slot == 0 {
		return false
	}
	slot := h.slot - 1
	if int(slot) >= len(s.arena) {
		return false
	}
	ev := &s.arena[slot]
	if ev.gen != h.gen || ev.heapIdx < 0 {
		return false
	}
	s.removeAt(int(ev.heapIdx))
	s.release(slot)
	return true
}

// release recycles an arena slot: the generation bump makes outstanding
// handles stale, and dropping the handler releases any captured state.
func (s *Simulation) release(slot uint32) {
	ev := &s.arena[slot]
	ev.gen++
	ev.handler = nil
	ev.heapIdx = -1
	s.free = append(s.free, slot)
}

// step fires the earliest event. It reports false when the queue is empty.
func (s *Simulation) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	slot := s.heap[0]
	ev := &s.arena[slot]
	at := ev.at
	h, arg := ev.handler, ev.arg
	s.removeAt(0)
	// Release before running the handler: by the time user code executes,
	// the handle is stale and the slot is reusable, so a handler that
	// cancels its own handle or schedules into the freed slot is safe.
	s.release(slot)
	s.now = at
	s.fired++
	h(s, arg)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulation) Run() {
	for s.step() {
	}
}

// RunUntil executes events with firing time <= end, then advances the clock
// to end. Events scheduled beyond end remain pending.
func (s *Simulation) RunUntil(end time.Duration) {
	for len(s.heap) > 0 && s.arena[s.heap[0]].at <= end {
		s.step()
	}
	if s.now < end {
		s.now = end
	}
}

// --- 4-ary index-tracking heap over arena slots ---
//
// A 4-ary heap halves tree depth versus binary, trading a wider child scan
// (cheap: the four slot indices share a cache line) for fewer levels of
// sift traffic — the classic d-ary layout used by high-throughput event
// calendars. The ordering (at, seq) is a total order because seq is unique,
// so pop order — and therefore every simulation trajectory — does not
// depend on the heap's shape.

// less orders arena slots a before b.
func (s *Simulation) less(a, b uint32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// setHeap writes slot into heap position i and tracks the index.
func (s *Simulation) setHeap(i int, slot uint32) {
	s.heap[i] = slot
	s.arena[slot].heapIdx = int32(i)
}

// siftUp restores heap order from position i toward the root.
func (s *Simulation) siftUp(i int) {
	slot := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(slot, s.heap[parent]) {
			break
		}
		s.setHeap(i, s.heap[parent])
		i = parent
	}
	s.setHeap(i, slot)
}

// siftDown restores heap order from position i toward the leaves.
func (s *Simulation) siftDown(i int) {
	n := len(s.heap)
	slot := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !s.less(s.heap[best], slot) {
			break
		}
		s.setHeap(i, s.heap[best])
		i = best
	}
	s.setHeap(i, slot)
}

// removeAt deletes the heap entry at position i, preserving heap order.
func (s *Simulation) removeAt(i int) {
	n := len(s.heap) - 1
	moved := s.heap[n]
	removed := s.heap[i]
	s.arena[removed].heapIdx = -1
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.setHeap(i, moved)
	if i > 0 && s.less(moved, s.heap[(i-1)/4]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}
