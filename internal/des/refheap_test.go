package des

import (
	"errors"
	"fmt"
	"time"
)

// refSim is the kernel's previous event calendar, a 4-ary heap of
// inline-keyed entries over the same kind of pooled arena, kept only as
// the reference the differential test and FuzzCalendar compare the radix
// heap against. Both order by (at, seq), so both must fire the same
// events in the same order whatever operations drive them.
type refSim struct {
	now     time.Duration
	arena   []refEvent
	heap    []entry // 4-ary heap ordered by (at, seq)
	free    []uint32
	dead    int // cancelled entries still in heap
	nextSeq uint64
	fired   uint64
}

type refHandler func(sim *refSim, arg uint64)

type refEvent struct {
	arg     uint64
	gen     uint32
	handler refHandler
}

func (s *refSim) Now() time.Duration { return s.now }
func (s *refSim) Fired() uint64      { return s.fired }
func (s *refSim) Pending() int       { return len(s.heap) - s.dead }

func (s *refSim) ScheduleArgAt(at time.Duration, h refHandler, arg uint64) (Handle, error) {
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
		s.arena = append(s.arena, refEvent{})
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

func (s *refSim) ScheduleArgAfter(delay time.Duration, h refHandler, arg uint64) (Handle, error) {
	return s.ScheduleArgAt(s.now+max(delay, 0), h, arg)
}

func (s *refSim) Cancel(h Handle) bool {
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

// live discards cancelled entries from the root and reports whether a
// live event remains at the root.
func (s *refSim) live() bool {
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

func (s *refSim) fireRoot() {
	top := s.heap[0]
	s.popRoot()
	ev := &s.arena[top.slot]
	h, arg := ev.handler, ev.arg
	ev.gen++
	ev.handler = nil
	s.free = append(s.free, top.slot)
	s.now = top.at
	s.fired++
	h(s, arg)
}

func (s *refSim) Run() {
	for s.live() {
		s.fireRoot()
	}
}

func (s *refSim) RunUntil(end time.Duration) {
	for s.live() && s.heap[0].at <= end {
		s.fireRoot()
	}
	if s.now < end {
		s.now = end
	}
}

func (s *refSim) siftUp(i int) {
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

func (s *refSim) siftDown(i int) {
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

// popRoot removes the root with Floyd's method: the hole follows the
// smaller child to a leaf, and the displaced last entry sifts up from
// there.
func (s *refSim) popRoot() {
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

// compact discards every dead entry and re-heapifies the survivors.
func (s *refSim) compact() {
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
