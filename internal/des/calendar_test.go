package des

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rng"
)

// firing is one event run: when it fired and what it carried.
type firing struct {
	at  time.Duration
	arg uint64
}

// calendarPair drives the radix-heap kernel and the reference 4-ary heap
// (refSim) through the same operations and checks, after each one, that
// they agree on what fired, on Pending, Fired and Now, and on every
// return value.
type calendarPair struct {
	t       *testing.T
	sim     *Simulation
	ref     *refSim
	simLog  []firing
	refLog  []firing
	simH    ArgHandler
	refH    refHandler
	handles [][2]Handle // [0] from sim, [1] from ref; fired and cancelled ones stay, so stale handles get cancelled too
	nextArg uint64
}

func newCalendarPair(t *testing.T) *calendarPair {
	p := &calendarPair{t: t, sim: New(), ref: &refSim{}}
	// A fired event whose argument is a multiple of 5 schedules one
	// follow-up, 0 to 2 s later, from inside its handler; the follow-up's
	// argument, arg + 2^32, is 1 modulo 5.
	p.simH = func(s *Simulation, arg uint64) {
		p.simLog = append(p.simLog, firing{s.Now(), arg})
		if arg%5 == 0 {
			if _, err := s.ScheduleArgAfter(time.Duration(arg%3)*time.Second, p.simH, arg+1<<32); err != nil {
				t.Error(err)
			}
		}
	}
	p.refH = func(s *refSim, arg uint64) {
		p.refLog = append(p.refLog, firing{s.Now(), arg})
		if arg%5 == 0 {
			if _, err := s.ScheduleArgAfter(time.Duration(arg%3)*time.Second, p.refH, arg+1<<32); err != nil {
				t.Error(err)
			}
		}
	}
	return p
}

// scheduleAt schedules one event at the same absolute time in both.
func (p *calendarPair) scheduleAt(at time.Duration) {
	p.t.Helper()
	p.nextArg++
	hs, errS := p.sim.ScheduleArgAt(at, p.simH, p.nextArg)
	hr, errR := p.ref.ScheduleArgAt(at, p.refH, p.nextArg)
	if errors.Is(errS, ErrPastEvent) != errors.Is(errR, ErrPastEvent) || (errS == nil) != (errR == nil) {
		p.t.Fatalf("ScheduleArgAt(%v) at now=%v: kernel error %v, reference error %v", at, p.sim.Now(), errS, errR)
	}
	if errS == nil {
		p.handles = append(p.handles, [2]Handle{hs, hr})
	}
}

// scheduleAfter schedules one event delay after now in both.
func (p *calendarPair) scheduleAfter(delay time.Duration) {
	p.t.Helper()
	p.nextArg++
	hs, errS := p.sim.ScheduleArgAfter(delay, p.simH, p.nextArg)
	hr, errR := p.ref.ScheduleArgAfter(delay, p.refH, p.nextArg)
	if errS != nil || errR != nil {
		p.t.Fatalf("ScheduleArgAfter(%v): kernel error %v, reference error %v", delay, errS, errR)
	}
	p.handles = append(p.handles, [2]Handle{hs, hr})
}

func (p *calendarPair) cancel(i int) {
	p.t.Helper()
	h := p.handles[i]
	if got, want := p.sim.Cancel(h[0]), p.ref.Cancel(h[1]); got != want {
		p.t.Fatalf("Cancel of handle %d: kernel %v, reference %v", i, got, want)
	}
}

func (p *calendarPair) runUntil(end time.Duration) {
	p.sim.RunUntil(end)
	p.ref.RunUntil(end)
}

func (p *calendarPair) run() {
	p.sim.Run()
	p.ref.Run()
}

// check compares everything observable.
func (p *calendarPair) check(op string) {
	p.t.Helper()
	if len(p.simLog) != len(p.refLog) {
		p.t.Fatalf("after %s: kernel fired %d events, reference %d", op, len(p.simLog), len(p.refLog))
	}
	for i := range p.simLog {
		if p.simLog[i] != p.refLog[i] {
			p.t.Fatalf("after %s: firing %d is %+v, reference %+v", op, i, p.simLog[i], p.refLog[i])
		}
	}
	if p.sim.Pending() != p.ref.Pending() || p.sim.Fired() != p.ref.Fired() || p.sim.Now() != p.ref.Now() {
		p.t.Fatalf("after %s: kernel Pending %d Fired %d Now %v, reference %d %d %v", op,
			p.sim.Pending(), p.sim.Fired(), p.sim.Now(), p.ref.Pending(), p.ref.Fired(), p.ref.Now())
	}
}

// runCalendarOps decodes ops two bytes at a time into schedules (at
// absolute times, after delays including negative and zero ones, in the
// past, far ahead), cancels (of pending, fired, cancelled and zero
// handles), RunUntil to times on and between event times, and Run, and
// applies each to both kernels. Times are whole seconds and RunUntil ends
// are half seconds, so ties and events just past a horizon are common.
func runCalendarOps(t *testing.T, ops []byte) {
	p := newCalendarPair(t)
	for i := 0; i+1 < len(ops); i += 2 {
		code, x := ops[i], ops[i+1]
		now := p.sim.Now()
		var op string
		switch code % 8 {
		case 0, 1:
			op = "ScheduleArgAt"
			p.scheduleAt(now + time.Duration(x%16)*time.Second)
		case 2:
			op = "ScheduleArgAfter"
			p.scheduleAfter(time.Duration(int(x%16)-2) * time.Second)
		case 3:
			op = "ScheduleArgAt far ahead or in the past"
			switch x % 3 {
			case 0:
				p.scheduleAt(now + time.Duration(x)*time.Hour)
			case 1:
				p.scheduleAt(now + 1<<50 + time.Duration(x))
			default:
				p.scheduleAt(now - time.Duration(x%8+1)*time.Second)
			}
		case 4, 5:
			op = "Cancel"
			if len(p.handles) == 0 || x == 255 {
				if p.sim.Cancel(Handle{}) || p.ref.Cancel(Handle{}) {
					t.Fatal("Cancel of the zero handle returned true")
				}
				break
			}
			p.cancel(int(x) % len(p.handles))
		case 6:
			op = "RunUntil"
			p.runUntil(now + time.Duration(x%32)*time.Second/2)
		default:
			if x%4 == 0 {
				op = "Run"
				p.run()
			} else {
				op = "RunUntil"
				p.runUntil(now + time.Duration(x)*time.Second)
			}
		}
		p.check(op)
	}
	p.run()
	p.check("final Run")
	if p.sim.Pending() != 0 || p.sim.queued != 0 {
		t.Fatalf("after the final Run: Pending %d, %d entries stored", p.sim.Pending(), p.sim.queued)
	}
}

// TestCalendarMatchesReferenceHeap drives the radix heap and the
// reference 4-ary heap through random interleavings of every operation
// and requires the same firing sequence, Pending, Fired and return
// values throughout.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	t.Parallel()

	src := rng.New(1)
	for round := 0; round < 300; round++ {
		ops := make([]byte, 2*(1+src.Intn(1500)))
		for i := range ops {
			ops[i] = byte(src.Uint64())
		}
		runCalendarOps(t, ops)
		if t.Failed() {
			t.Fatalf("round %d diverged", round)
		}
	}
}

// TestRunUntilNeverPopsPastEnd is the case RunUntil's contract exists
// for: it stops short of a later pending event, live or cancelled, and
// events then scheduled between the horizon and that event must still
// fire first, in (at, seq) order. Had RunUntil(5s) popped the 10 s event,
// 5 s would differ from it in a higher bit than 11 s does, and a radix
// heap keyed on that pop would fire 11 s first.
func TestRunUntilNeverPopsPastEnd(t *testing.T) {
	t.Parallel()

	for _, cancelLater := range []bool{false, true} {
		p := newCalendarPair(t)
		p.scheduleAt(time.Second)
		p.scheduleAt(10 * time.Second)
		p.scheduleAt(11 * time.Second)
		if cancelLater {
			p.cancel(1)
		}
		p.runUntil(5 * time.Second)
		p.check("RunUntil(5s)")
		p.scheduleAt(5 * time.Second)
		p.scheduleAt(7 * time.Second)
		p.scheduleAt(7 * time.Second)
		p.scheduleAfter(0)
		p.runUntil(7 * time.Second)
		p.check("RunUntil(7s)")
		p.scheduleAt(9 * time.Second)
		p.run()
		p.check("Run")
		// Event 5 schedules its follow-up for 9 s, before event 8.
		want := []uint64{1, 4, 7, 5, 6, 5 + 1<<32, 8, 3}
		if !cancelLater {
			want = []uint64{1, 4, 7, 5, 6, 5 + 1<<32, 8, 2, 3}
		}
		if len(p.simLog) != len(want) {
			t.Fatalf("cancelLater=%v: fired %+v, want args %v", cancelLater, p.simLog, want)
		}
		for i, f := range p.simLog {
			if f.arg != want[i] {
				t.Fatalf("cancelLater=%v: fired %+v, want args %v", cancelLater, p.simLog, want)
			}
		}
	}
}

// FuzzCalendar runs runCalendarOps on arbitrary operation strings.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 6, 4, 1, 0, 7, 0})
	f.Add([]byte{0, 9, 3, 1, 4, 1, 6, 30, 0, 0, 2, 0, 7, 1})
	f.Add([]byte{3, 0, 0, 5, 4, 0, 4, 0, 6, 2, 1, 1, 7, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runCalendarOps(t, ops)
	})
}
