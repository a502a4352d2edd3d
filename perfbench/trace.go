package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
)

// span is one timed interval the benchmark records around a call into a
// layer of the simulator. Start and End are offsets from the recorder's
// origin; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use: the sweep's pool workers and the sharded
// driver's goroutines record into one recorder.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: clock.System()} }

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int) int {
	now := clock.System().Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	now := clock.System().Sub(r.t0)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// The functions below derive the per-layer metrics from spans and exact
// counts. They are pure so the tests can pin them on synthetic input.

// selfTime is span i's duration minus the part of its interval that its
// children cover. Overlapping children (concurrent work under one parent)
// count once.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	var kids []span
	for _, c := range spans {
		if c.Parent != i {
			continue
		}
		if c.Start < p.Start {
			c.Start = p.Start
		}
		if c.End > p.End {
			c.End = p.End
		}
		if c.End > c.Start {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var covered time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curStart, curEnd, open = k.Start, k.End, true
		case k.Start <= curEnd:
			if k.End > curEnd {
				curEnd = k.End
			}
		default:
			covered += curEnd - curStart
			curStart, curEnd = k.Start, k.End
		}
	}
	if open {
		covered += curEnd - curStart
	}
	return p.dur() - covered
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// sumSelf totals the self time of the spans named name.
func sumSelf(spans []span, name string) time.Duration {
	var d time.Duration
	for i, s := range spans {
		if s.Name == name {
			d += selfTime(spans, i)
		}
	}
	return d
}

// durationsMs lists the durations of the spans named name, in milliseconds.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// idle is the time workers spent not running work during a phase of length
// wall in which their work spans total busy.
func idle(workers int, wall, busy time.Duration) time.Duration {
	return time.Duration(workers)*wall - busy
}

// phaseIdle sums idle over every span named phase, counting as busy the
// spans named worker whose parent is that phase: the straggler wait of the
// sharded driver's windows.
func phaseIdle(spans []span, phase, worker string, workers int) time.Duration {
	busy := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Name == worker && s.Parent >= 0 {
			busy[s.Parent] += s.dur()
		}
	}
	var d time.Duration
	for i, s := range spans {
		if s.Name == phase {
			d += idle(workers, s.dur(), busy[i])
		}
	}
	return d
}

// poolIdle is the idle time of a pool of workers over the spans named
// "run": workers × run time minus the time spent inside the work spans
// named in units.
func poolIdle(spans []span, workers int, units ...string) time.Duration {
	var busy time.Duration
	for _, u := range units {
		busy += sumDur(spans, u)
	}
	return idle(workers, sumDur(spans, "run"), busy)
}

// serialFrac is the share of the "run" spans spent in the serial barrier
// step of the sharded protocol.
func serialFrac(spans []span) float64 {
	return ratio(float64(sumDur(spans, "shard.barrier")), float64(sumDur(spans, "run")))
}

// imbalance is the load imbalance of a sharded run from its per-window,
// per-shard event counts: the events of each window's busiest shard,
// summed over windows, over the per-window mean summed the same way. 1
// means every window was perfectly balanced; windows without events do
// not count. It is 0 when no window fired an event.
func imbalance(deltas [][]uint64) float64 {
	var sumMax, sumMean float64
	for _, w := range deltas {
		if len(w) == 0 {
			continue
		}
		var max, total uint64
		for _, d := range w {
			total += d
			if d > max {
				max = d
			}
		}
		if total == 0 {
			continue
		}
		sumMax += float64(max)
		sumMean += float64(total) / float64(len(w))
	}
	if sumMean == 0 {
		return 0
	}
	return sumMax / sumMean
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
