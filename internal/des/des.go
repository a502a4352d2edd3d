// Package des is a discrete-event simulation kernel.
//
// It substitutes for the simulation engine of the Möbius tool used in the
// paper: a monotone virtual clock, an event calendar ordered by firing time
// with stable FIFO tie-breaking, handles for cancellation, and run loops
// that drain the calendar or stop at a time horizon. Virtual time is
// expressed as time.Duration offsets from the simulation start, which is all
// the models need and keeps arithmetic exact.
//
// The event calendar is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// 1990) over the 128-bit key (at, seq), with the events themselves in a
// pooled arena (see DESIGN.md §9). The kernel is monotone: every key it
// is asked to store is greater than the last key it popped, so a key's
// bucket can be set by the highest digit in which it differs from that
// last key (4-bit digits of at, or single bits of seq), the least key sits
// in the lowest non-empty bucket, and a pop moves the rest of that bucket
// into strictly lower ones. Buckets are lists of
// fixed-size chunks drawn from one pool, so redistribution is sequential
// scans and appends, and emptied chunks are reused. Events live in a
// flat slice whose fired and cancelled slots are recycled through a free
// list, so steady-state scheduling performs zero allocations, and handles
// carry a generation counter so a handle that outlives its event (fired,
// cancelled, or the slot since reused) is inert rather than aliasing the
// new occupant. Cancellation is lazy: a cancelled entry stays stored,
// dead, until it is the least key or dead entries make up half the
// calendar.
//
// There is one event type: an ArgHandler plus a uint64 argument. Models
// create one long-lived handler per event kind and pack the per-event
// state (phone ids, attempt counters, queue slots) into the argument, so
// no event allocates a closure and the event stays 24 bytes.
package des

import (
	"errors"
	"fmt"
	"math/bits"
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
// cancelled event whose calendar entry has not been discarded yet.
type event struct {
	arg     uint64 // payload passed to handler
	gen     uint32
	handler ArgHandler
}

// entry is one calendar element: the event's ordering key and its arena
// slot.
type entry struct {
	at   time.Duration
	seq  uint64 // schedule order; breaks ties FIFO
	slot uint32
}

// before orders entries by (at, seq).
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// The calendar's buckets. A stored key never equals the last popped one,
// because seq is unique. A key with the same at goes to bucket
// bits.Len64(seq ^ lastSeq) - 1, in [0, 64). One whose at differs is
// placed by the highest digit of at, digitBits bits wide, in which it
// differs, and by its own value of that digit, in [64, numBuckets): a
// pop then moves each entry down at least a digit, not a bit.
const (
	digitBits  = 4
	digitVals  = 1 << digitBits
	numBuckets = 64 + 64/digitBits*digitVals
	maskWords  = (numBuckets + 63) / 64
)

// chunkLen is the number of entries in one storage chunk, which with its
// link word is 392 bytes. Small chunks keep the partly filled head of
// every non-empty bucket cheap, and let the pool grow in small steps.
const chunkLen = 16

// chunk is a fixed-size block of bucket storage. A bucket chains its
// chunks through next, and so does the spare list.
type chunk struct {
	next uint32 // id of the next chunk in the list; 0 ends it
	e    [chunkLen]entry
}

// bucket is one radix-heap bucket packed into a word: the id of its head
// chunk (pool index + 1; 0 when the bucket is empty) above roomBits bits
// that count the unused entries of the head. Every chunk after the head
// is full. An empty bucket has no room, so put tests one field.
type bucket uint32

// roomBits holds a count up to chunkLen.
const roomBits = 5

func (b bucket) head() uint32 { return uint32(b) >> roomBits }
func (b bucket) room() uint32 { return uint32(b) & (1<<roomBits - 1) }

// Simulation is a single-threaded discrete-event simulation. It is not safe
// for concurrent use; run one Simulation per goroutine.
type Simulation struct {
	now     time.Duration
	arena   []event  // pooled event storage
	free    []uint32 // released arena slots awaiting reuse
	nextSeq uint64
	fired   uint64

	// The calendar. Every stored key is greater than (lastAt, lastSeq),
	// the key last popped.
	lastAt  time.Duration
	lastSeq uint64
	min     entry // the least stored entry, while minOK
	minOK   bool
	held    bool              // the one stored entry is min, kept out of the buckets
	queued  int               // stored entries, live or dead
	dead    int               // cancelled entries still stored
	mask    [maskWords]uint64 // bit b set while bucket b is non-empty
	summary uint64            // bit w set while mask[w] is non-zero
	buckets [numBuckets]bucket
	chunks  []chunk // chunk pool; chunk id c is chunks[c-1]
	spare   uint32  // first chunk of the spare list, chained through next
	warm    uint32  // an arena word read ahead of fire; see pop
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
func (s *Simulation) Pending() int { return s.queued - s.dead }

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
	s.insert(entry{at: at, seq: s.nextSeq, slot: slot})
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
// The event's calendar entry stays behind, dead, and its slot stays out
// of the free list until the entry is discarded: when it is the least
// key, or when dead entries outnumber live ones and the calendar is
// compacted.
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
	if 2*s.dead > s.queued {
		s.compact()
	}
	return true
}

// step pops the least entries until one holds a live event, and fires
// it. It reports false when no live event remains.
func (s *Simulation) step() bool {
	for s.queued > 0 {
		s.peek()
		if s.fire(s.pop()) {
			return true
		}
	}
	// Discarded entries may have left the last popped key after now.
	// With nothing stored, any key at or after now is a valid floor.
	s.lastAt, s.lastSeq = s.now, 0
	return false
}

// fire runs a popped entry's event and reports true, or, if the event
// was cancelled, frees its slot and reports false. Its slot is released
// before the handler runs: by the time user code executes, the handle is
// stale and the slot is reusable, so a handler that cancels its own
// handle or schedules into the freed slot is safe.
func (s *Simulation) fire(e entry) bool {
	ev := &s.arena[e.slot]
	h, arg := ev.handler, ev.arg
	if h == nil {
		s.free = append(s.free, e.slot)
		s.dead--
		return false
	}
	ev.gen++
	ev.handler = nil
	s.free = append(s.free, e.slot)
	s.now = e.at
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
//
// It pops nothing later than end, dead or alive: callers schedule events
// in [end, next pending) after it returns, and a popped key after end
// would make them smaller than the last popped key.
func (s *Simulation) RunUntil(end time.Duration) {
	for s.queued > 0 && s.peek().at <= end {
		s.fire(s.pop())
	}
	if s.now < end {
		s.now = end
	}
}

// --- radix heap over (at, seq) ---
//
// A key's bucket is set by the highest digit in which it differs from the
// last popped key, and by its own value of that digit. Keys in a lower
// bucket are smaller: keys agree with the last key above the digit that
// places them, so of two keys placed by different digits the one placed
// lower still agrees with the last key, digit for digit, where the other
// has grown, and of two placed by the same digit the smaller digit value
// is the smaller key. The least key is therefore in the lowest non-empty
// bucket. Once it is popped and becomes the last key, the rest of its
// bucket agree with it on that digit and above, so each moves to a
// strictly lower bucket, and keys in every other bucket first differ from
// it where they first differed from the old last key, so they stay. The
// order is the total order (at, seq), so pop order does not depend on the
// bucket layout.

// bucketOf returns the bucket of a key greater than the last popped key.
// Times are never negative, so the highest digit of at is below 64/digitBits.
func (s *Simulation) bucketOf(e entry) int {
	if x := uint64(e.at ^ s.lastAt); x != 0 {
		sh := uint(bits.Len64(x)-1) &^ (digitBits - 1) & 63
		return 64 + int(sh)*(digitVals/digitBits) + int(uint64(e.at)>>sh&(digitVals-1))
	}
	return bits.Len64(e.seq^s.lastSeq) - 1
}

// insert stores e. An entry scheduled into an empty calendar is only held
// as the minimum, so a chain of events each scheduling its successor
// never touches a bucket; it moves into one when a second entry arrives.
func (s *Simulation) insert(e entry) {
	s.queued++
	if s.queued == 1 {
		s.min, s.minOK, s.held = e, true, true
		return
	}
	if s.held {
		s.held = false
		s.put(s.bucketOf(s.min), s.min)
	}
	s.put(s.bucketOf(e), e)
	if s.minOK && e.before(s.min) {
		s.min = e
	}
}

// put appends e to bucket b.
func (s *Simulation) put(b int, e entry) {
	bk := &s.buckets[b]
	if bk.room() == 0 {
		s.newHead(b)
	}
	s.chunks[bk.head()-1].e[chunkLen-bk.room()] = e
	*bk--
}

// newHead starts a new head chunk for bucket b, which is empty or has a
// full head. It takes the chunk from the spare list, else grows the pool
// by one.
func (s *Simulation) newHead(b int) {
	bk := s.buckets[b]
	if bk == 0 {
		s.mask[b>>6] |= 1 << (b & 63)
		s.summary |= 1 << (b >> 6)
	}
	c := s.spare
	if c != 0 {
		s.spare = s.chunks[c-1].next
	} else {
		s.chunks = append(s.chunks, chunk{})
		c = uint32(len(s.chunks))
	}
	s.chunks[c-1].next = bk.head()
	s.buckets[b] = bucket(c<<roomBits | chunkLen)
}

// take detaches bucket b's chunk chain and returns its head and the
// head's fill. The caller walks the chain and releases each chunk once it
// has read it.
func (s *Simulation) take(b int) (head, n uint32) {
	bk := s.buckets[b]
	s.buckets[b] = 0
	if s.mask[b>>6] &^= 1 << (b & 63); s.mask[b>>6] == 0 {
		s.summary &^= 1 << (b >> 6)
	}
	return bk.head(), chunkLen - bk.room()
}

// release returns chunk c to the spare list and returns the chunk that
// followed it.
func (s *Simulation) release(c uint32) uint32 {
	ch := &s.chunks[c-1]
	next := ch.next
	ch.next = s.spare
	s.spare = c
	return next
}

// lowest returns the lowest non-empty bucket. The calendar must not be
// empty.
func (s *Simulation) lowest() int {
	w := bits.TrailingZeros64(s.summary)
	return w<<6 | bits.TrailingZeros64(s.mask[w])
}

// peek returns the least stored entry without popping it, scanning the
// lowest bucket when the cached minimum is unknown. The calendar must not
// be empty.
func (s *Simulation) peek() entry {
	if !s.minOK {
		s.scanMin()
	}
	return s.min
}

// scanMin sets the cached minimum to the least entry of the lowest bucket.
func (s *Simulation) scanMin() {
	bk := s.buckets[s.lowest()]
	m := s.chunks[bk.head()-1].e[0]
	for c, n := bk.head(), chunkLen-bk.room(); c != 0; c, n = s.chunks[c-1].next, chunkLen {
		for _, e := range s.chunks[c-1].e[:n] {
			if e.before(m) {
				m = e
			}
		}
	}
	s.min, s.minOK = m, true
}

// pop removes the least entry, which peek has found, and makes it the
// last popped key, moving the rest of its bucket down. The least of the
// moved entries is the new minimum; if there were none, the new minimum
// is found in the next bucket up.
func (s *Simulation) pop() entry {
	m := s.min
	s.lastAt, s.lastSeq = m.at, m.seq
	s.queued--
	s.minOK = false
	if s.held {
		s.held = false
		return m
	}
	head, n := s.take(s.lowest())
	if n == 1 && s.chunks[head-1].next == 0 {
		s.release(head)
		if s.queued == 0 {
			return m
		}
		s.scanMin()
	} else {
		next := entry{at: 1<<63 - 1, seq: 1<<64 - 1}
		for c := head; c != 0; c, n = s.release(c), chunkLen {
			for i := uint32(0); i < n; i++ {
				e := s.chunks[c-1].e[i]
				if e.seq == m.seq {
					continue
				}
				s.put(s.bucketOf(e), e)
				if e.before(next) {
					next = e
				}
			}
		}
		s.min, s.minOK = next, true
	}
	// Read the next event's arena slot now: the likely cache miss then
	// overlaps the handler m is about to run instead of stalling the
	// next fire.
	s.warm = s.arena[s.min.slot].gen
	return m
}

// compact discards every dead entry, freeing its slot, and refills each
// non-empty bucket with its survivors. Cancel runs it once dead entries
// exceed half the calendar, so a loop that cancels far-future events
// without popping keeps the calendar within twice the pending count, and
// the linear pass is paid for by the cancels that made it necessary.
func (s *Simulation) compact() {
	if s.held {
		// The one entry is the dead one.
		s.free = append(s.free, s.min.slot)
		s.queued, s.dead = 0, 0
		s.held, s.minOK = false, false
		return
	}
	for w, word := range s.mask {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			head, n := s.take(b)
			for c := head; c != 0; c, n = s.release(c), chunkLen {
				for i := uint32(0); i < n; i++ {
					e := s.chunks[c-1].e[i]
					if s.arena[e.slot].handler == nil {
						s.free = append(s.free, e.slot)
					} else {
						s.put(b, e)
					}
				}
			}
		}
	}
	s.queued -= s.dead
	s.dead = 0
	s.minOK = false
}
