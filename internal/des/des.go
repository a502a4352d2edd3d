// Package des is a discrete-event simulation kernel.
//
// It substitutes for the simulation engine of the Möbius tool used in the
// paper: a monotone virtual clock, an event calendar ordered by firing time
// with stable FIFO tie-breaking, handles for cancellation, and run loops
// that drain the calendar or stop at a time horizon. Virtual time is
// expressed as time.Duration offsets from the simulation start, which is all
// the models need and keeps arithmetic exact.
//
// The event calendar is an internal 4-ary heap over a pooled event arena
// (see DESIGN.md §9): events live in a flat slice, fired and cancelled
// slots are recycled through a free list, and each heap entry carries its
// event's (at, seq) key inline next to the arena slot, so the sift loops
// compare keys without touching the arena. Steady-state scheduling
// therefore performs zero allocations, and handles carry a generation
// counter so a handle that outlives its event (fired, cancelled, or the
// slot since reused) is inert rather than aliasing the new occupant.
// Cancellation is lazy: a cancelled entry stays in the heap, dead, until
// it reaches the root or dead entries make up half the heap.
//
// There is one event type: an ArgHandler plus a uint64 argument. Models
// create one long-lived handler per event kind and pack the per-event
// state (phone ids, attempt counters, queue slots) into the argument, so
// no event allocates a closure and the event stays 24 bytes.
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

// event is one arena slot: what to run, not when. Slots are recycled: gen
// increments every time the event fires or is cancelled, invalidating
// outstanding handles. A nil handler marks a slot that is free or holds a
// cancelled event whose heap entry has not been discarded yet.
type event struct {
	arg     uint64 // payload passed to handler
	gen     uint32
	handler ArgHandler
}

// entry is one heap element: the event's ordering key and its arena slot.
type entry struct {
	at   time.Duration
	seq  uint64 // schedule order; breaks ties FIFO
	slot uint32
}

// before orders heap entries by (at, seq).
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Simulation is a single-threaded discrete-event simulation. It is not safe
// for concurrent use; run one Simulation per goroutine.
type Simulation struct {
	now     time.Duration
	arena   []event  // pooled event storage
	heap    []entry  // 4-ary heap ordered by (at, seq)
	free    []uint32 // released arena slots awaiting reuse
	dead    int      // cancelled entries still in heap
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

// Pending returns the number of events currently scheduled; cancelled
// events are not counted.
func (s *Simulation) Pending() int { return len(s.heap) - s.dead }

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
		s.arena = append(s.arena, event{})
		slot = uint32(len(s.arena) - 1)
	}
	s.nextSeq++
	ev := &s.arena[slot]
	ev.arg = arg
	ev.handler = h
	s.heap = append(s.heap, entry{at: at, seq: s.nextSeq, slot: slot})
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
//
// The event's heap entry stays behind, dead, and its slot stays out of the
// free list until the entry is discarded: at the root, or when dead
// entries outnumber live ones and the heap is compacted.
func (s *Simulation) Cancel(h Handle) bool {
	if h.slot == 0 {
		return false
	}
	slot := h.slot - 1
	if int(slot) >= len(s.arena) {
		return false
	}
	ev := &s.arena[slot]
	if ev.gen != h.gen || ev.handler == nil {
		return false
	}
	ev.gen++
	ev.handler = nil
	s.dead++
	if 2*s.dead > len(s.heap) {
		s.compact()
	}
	return true
}

// release recycles a fired event's arena slot: the generation bump makes
// outstanding handles stale, and dropping the handler releases any
// captured state.
func (s *Simulation) release(slot uint32) {
	ev := &s.arena[slot]
	ev.gen++
	ev.handler = nil
	s.free = append(s.free, slot)
}

// live discards cancelled entries from the root, freeing their slots, and
// reports whether a live event remains at the root.
func (s *Simulation) live() bool {
	for s.dead > 0 && len(s.heap) > 0 {
		slot := s.heap[0].slot
		if s.arena[slot].handler != nil {
			break
		}
		s.popRoot()
		s.free = append(s.free, slot)
		s.dead--
	}
	return len(s.heap) > 0
}

// step fires the earliest event. It reports false when the queue is empty.
func (s *Simulation) step() bool {
	if !s.live() {
		return false
	}
	s.fireRoot()
	return true
}

// fireRoot pops the live root event and runs it.
func (s *Simulation) fireRoot() {
	top := s.heap[0]
	s.popRoot()
	ev := &s.arena[top.slot]
	h, arg := ev.handler, ev.arg
	// Release before running the handler: by the time user code executes,
	// the handle is stale and the slot is reusable, so a handler that
	// cancels its own handle or schedules into the freed slot is safe.
	s.release(top.slot)
	s.now = top.at
	s.fired++
	h(s, arg)
}

// Run executes events until the queue is empty.
func (s *Simulation) Run() {
	for s.step() {
	}
}

// RunUntil executes events with firing time <= end, then advances the clock
// to end. Events scheduled beyond end remain pending.
func (s *Simulation) RunUntil(end time.Duration) {
	for s.live() && s.heap[0].at <= end {
		s.fireRoot()
	}
	if s.now < end {
		s.now = end
	}
}

// --- 4-ary heap of inline-keyed entries ---
//
// A 4-ary heap halves tree depth versus binary, trading a wider child scan
// (cheap: four 24-byte entries span at most two cache lines) for fewer
// levels of sift traffic — the classic d-ary layout used by high-throughput
// event calendars. The ordering (at, seq) is a total order because seq is
// unique, so pop order — and therefore every simulation trajectory — does
// not depend on the heap's shape.

// siftUp restores heap order from position i toward the root.
func (s *Simulation) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown restores heap order from position i toward the leaves.
func (s *Simulation) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// popRoot removes the root entry with Floyd's method: the hole left at the
// root follows the smaller child down to a leaf without comparing against
// the displaced last entry, which then sifts up from there. The last entry
// almost always belongs near the leaves, so this saves the per-level
// comparison a plain sift-down makes against it.
func (s *Simulation) popRoot() {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if n == 0 {
		return
	}
	h := s.heap
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	s.siftUp(i)
}

// compact discards every dead entry, freeing its slot, and re-heapifies
// the survivors in place. Cancel runs it once dead entries exceed half
// the heap, so a loop that cancels far-future events without popping
// keeps the heap within twice the pending count, and the linear pass is
// paid for by the cancels that made it necessary.
func (s *Simulation) compact() {
	k := 0
	for _, e := range s.heap {
		if s.arena[e.slot].handler == nil {
			s.free = append(s.free, e.slot)
			continue
		}
		s.heap[k] = e
		k++
	}
	s.heap = s.heap[:k]
	s.dead = 0
	for i := (k - 2) / 4; i >= 0 && k > 1; i-- {
		s.siftDown(i)
	}
}
