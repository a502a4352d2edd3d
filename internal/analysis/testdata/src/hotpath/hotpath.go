// Package hotpath seeds violations of the interprocedural allocation
// gate. The package is loaded under testmod/internal/des so Simulation's
// step method suffix-matches the built-in root spec des.Simulation.step;
// everything step reaches — directly, transitively, through interface
// dispatch, or as a created closure — is hot, and the rest of the file
// (construction-time code) must stay quiet. Never built by the go tool.
package hotpath

import "fmt"

// Tracer mirrors the des tracer hook; Fired resolves by name and arity to
// every concrete implementation in the package.
type Tracer interface {
	Fired(seq uint64)
}

type event struct{ seq uint64 }

// Simulation mirrors the des event-loop shape.
type Simulation struct {
	arena []event
	buf   []byte
	trace Tracer
}

// step is hot by the default root set; every callee below is checked.
func (s *Simulation) step() {
	s.fireOne(1)
	s.helperAllocs()
	s.amortized(event{seq: 2})
	_ = s.names(nil)
	_ = s.localGrowth(3)
	_ = s.snapshot()
	s.scheduleRetry(4)
	s.held(5)
	_ = s.coldError(3)
	_ = s.coldCall(7)
	_ = s.tailCall(8)
	s.trace.Fired(6)
}

// fireOne allocates in the call-shaped ways.
func (s *Simulation) fireOne(n int) {
	m := make(map[uint64]bool, n) // want `\[hotpath\] .*make allocates per event`
	_ = m
	p := &event{seq: 1} // want `\[hotpath\] .*address-taken composite literal`
	_ = p
	box(int64(n)) // want `\[hotpath\] .*boxes int64 into an interface`
}

// box takes any; callers pay the boxing.
func box(v any) { _ = v }

// helperAllocs is hot transitively.
func (s *Simulation) helperAllocs() {
	for i := 0; i < 4; i++ {
		defer s.amortized(event{seq: uint64(i)}) // want `\[hotpath\] .*defer inside a loop`
	}
}

// names concatenates per iteration.
func (s *Simulation) names(labels []string) string {
	out := ""
	for _, l := range labels {
		out = out + l // want `\[hotpath\] .*string concatenation inside a loop`
	}
	return out
}

// amortized appends to a long-lived field: the des arena idiom. Quiet.
func (s *Simulation) amortized(e event) {
	s.arena = append(s.arena, e)
}

// localGrowth grows a function-local slice in a loop.
func (s *Simulation) localGrowth(n int) int {
	local := s.buf[:0]
	for i := 0; i < n; i++ {
		local = append(local, byte(i)) // want `\[hotpath\] .*append growth of local slice`
	}
	return len(local)
}

// snapshot is the copy-append idiom.
func (s *Simulation) snapshot() []event {
	return append([]event(nil), s.arena...) // want `\[hotpath\] .*copy-append`
}

// scheduleRetry builds a capturing closure per call.
func (s *Simulation) scheduleRetry(id uint64) {
	s.enqueue(func() { // want `\[hotpath\] .*closure captures`
		s.fireOne(int(id))
	})
}

// enqueue stands in for the scheduler's handler sink.
func (s *Simulation) enqueue(h func()) { _ = h }

// held documents a reasoned suppression on a hot allocation. Quiet.
func (s *Simulation) held(id uint64) {
	//mvlint:allow hotpath — corpus fixture: known per-event closure pending the SoA refactor
	s.enqueue(func() { _ = id })
}

// coldError allocates only inside the error return: the cold-exit
// exemption keeps it quiet, matching the des error discipline.
func (s *Simulation) coldError(at int) error {
	if at < 0 {
		return fmt.Errorf("past event at %d", at)
	}
	return nil
}

// coldCall makes the same call twice: inside the arguments of its
// fmt.Errorf return, where the cold-exit exemption keeps the callee off the
// hot path, and outside it, where the callee is hot.
func (s *Simulation) coldCall(id int) error {
	if id < 0 {
		return fmt.Errorf("bad id %s", coldLabel(id))
	}
	_ = hotLabel(id)
	return nil
}

// coldLabel is reached only from coldCall's error return. Quiet.
func coldLabel(id int) string {
	b := make([]byte, id)
	return string(b)
}

// hotLabel is coldLabel's twin, reached outside the error return.
func hotLabel(id int) string {
	b := make([]byte, id) // want `\[hotpath\] .*make allocates per event`
	return string(b)
}

// tailCall returns its callee's error: that return may yield nil on every
// event, so the callee stays hot although the return's final result is an
// error.
func (s *Simulation) tailCall(n int) error {
	return s.tail(n)
}

// tail is reached only as tailCall's returned call, and is checked.
func (s *Simulation) tail(n int) error {
	s.buf = make([]byte, n) // want `\[hotpath\] .*make allocates per event`
	return nil
}

// NoisyTracer's Fired is hot through interface dispatch from step.
type NoisyTracer struct {
	seen []uint64
}

// Fired allocates; the iface edge makes it reachable.
func (t *NoisyTracer) Fired(seq uint64) {
	m := make([]uint64, 1) // want `\[hotpath\] .*make allocates per event`
	m[0] = seq
	t.seen = append(t.seen, seq)
}

// Drain is rooted by annotation rather than by the built-in root set.
//
//mvlint:hotpath
func Drain(s *Simulation) {
	s.buf = append(s.buf, 0)
	x := new(event) // want `\[hotpath\] .*new allocates per event`
	_ = x
}

// Setup is construction-time code: unreachable from any root, so its
// allocations are fine. Quiet.
func Setup(n int) *Simulation {
	return &Simulation{
		arena: make([]event, 0, n),
		buf:   make([]byte, 0, 64),
		trace: &NoisyTracer{seen: make([]uint64, 0, n)},
	}
}
