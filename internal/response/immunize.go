package response

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/des"
	"repro/internal/mms"
	"repro/internal/rng"
)

// Immunizer is the software-patch mechanism: after the virus becomes
// detectable, the provider develops a patch (DevelopmentTime) and then
// deploys it to every vulnerable phone uniformly over DeploymentWindow
// (bandwidth limits prevent simultaneous installation; more servers mean a
// shorter window). A patched susceptible phone becomes immune; a patched
// infected phone stops disseminating.
type Immunizer struct {
	// DevelopmentTime is the patch development time after detectability
	// (paper: 24 or 48 hours).
	DevelopmentTime time.Duration
	// DeploymentWindow is the time over which the patch reaches the whole
	// population (paper: 1, 6, or 24 hours).
	DeploymentWindow time.Duration

	// Deployment state: at detection the wave is drawn once in canonical
	// phone order; shards[s] holds shard s's contiguous segment of it.
	shards []shardWave
}

// patchEntry is one phone's patch installation in a deployment wave.
type patchEntry struct {
	at time.Duration
	id mms.PhoneID
}

// shardWave is one owner shard's share of the deployment wave. Its first
// barrier hook after detection sorts entries by (install time, id) through
// scratch, a buffer of the same length, and drops scratch; entries[:next]
// are scheduled on the shard, the rest wait for a later window. patch
// installs the patch on the phone id its event carries.
type shardWave struct {
	entries []patchEntry
	scratch []patchEntry
	next    int
	patch   des.ArgHandler
}

var _ mms.Response = (*Immunizer)(nil)

// NewImmunizer returns a factory for patch-immunization campaigns.
func NewImmunizer(developmentTime, deploymentWindow time.Duration) mms.ResponseFactory {
	return func() mms.Response {
		return &Immunizer{
			DevelopmentTime:  developmentTime,
			DeploymentWindow: deploymentWindow,
		}
	}
}

// Name implements mms.Response.
func (im *Immunizer) Name() string {
	return fmt.Sprintf("immunize(dev=%v,deploy=%v)", im.DevelopmentTime, im.DeploymentWindow)
}

// Attach implements mms.Response. Detection draws the deployment wave;
// each shard's barrier hook then releases its own patches installing
// inside the upcoming window, in parallel with the other shards. One shard
// detects inside an event, so its detection releases the current window's
// share at once. Releasing window by window keeps a many-shard run from
// holding the whole wave in its event queues at once.
func (im *Immunizer) Attach(ss *mms.ShardSet, src *rng.Source) error {
	if im.DevelopmentTime < 0 {
		return fmt.Errorf("response: negative patch development time")
	}
	if im.DeploymentWindow < 0 {
		return fmt.Errorf("response: negative patch deployment window")
	}
	if src == nil {
		return fmt.Errorf("response: immunizer needs a random source")
	}
	nets := ss.Shards()
	im.shards = make([]shardWave, len(nets))
	for s, n := range nets {
		im.shards[s].patch = func(_ *des.Simulation, arg uint64) {
			// Patch failures are impossible for in-range ids.
			_ = n.Patch(mms.PhoneID(arg))
		}
	}
	ss.OnVirusDetected(func(at time.Duration) {
		im.draw(ss, src, at+im.DevelopmentTime)
		if len(nets) == 1 {
			im.release(ss, 0, ss.WindowEnd())
		}
	})
	ss.OnShardBarrier(func(s int, next time.Duration) {
		im.release(ss, s, next)
	})
	return nil
}

// draw builds the deployment wave starting at start: one uniform offset
// across the deployment window per phone that can be patched, drawn in
// phone order so the wave is the same for any shard layout. Shards own
// contiguous id ranges in shard order, so each shard's entries form one
// segment of the wave.
func (im *Immunizer) draw(ss *mms.ShardSet, src *rng.Source, start time.Duration) {
	wave := make([]patchEntry, 0, ss.N())
	scratch := make([]patchEntry, ss.N())
	for s, n := range ss.Shards() {
		lo := len(wave)
		for i := n.Base(); i < n.Base()+n.OwnedCount(); i++ {
			id := mms.PhoneID(i)
			if ss.State(id) == mms.StateNotVulnerable {
				continue // nothing to patch against
			}
			var offset time.Duration
			if im.DeploymentWindow > 0 {
				offset = time.Duration(src.Uniform(0, float64(im.DeploymentWindow)))
			}
			wave = append(wave, patchEntry{at: start + offset, id: id})
		}
		w := &im.shards[s]
		w.entries, w.scratch, w.next = wave[lo:], scratch[lo:len(wave)], 0
	}
}

// release schedules every pending patch of shard s installing before end,
// at its install time or the shard's current time, whichever is later.
// Entries release in (time, id) order, so same-instant installs tie-break
// by id on the shard's event queue — the global (time, id) order
// restricted to the shard. It touches only shard s's share of the wave and
// its queue, so shards release in parallel. Before detection a shard has
// no entries, and release does nothing.
func (im *Immunizer) release(ss *mms.ShardSet, s int, end time.Duration) {
	w := &im.shards[s]
	if w.scratch != nil {
		sortWave(w.entries, w.scratch)
		w.scratch = nil
	}
	sim := ss.Shards()[s].Sim()
	for ; w.next < len(w.entries); w.next++ {
		e := w.entries[w.next]
		if e.at >= end {
			return
		}
		if _, err := sim.ScheduleArgAt(max(e.at, sim.Now()), w.patch, uint64(e.id)); err != nil {
			return
		}
	}
}

// radixBits is the digit width of sortWave's passes: 2^11 counters fit
// in 16 KB.
const radixBits = 11

// sortWave sorts entries, which are in id order, by (install time, id): a
// stable least-significant-digit radix sort on each install time's offset
// from the earliest, so equal times keep their id order. It runs one
// counting pass per radixBits of the offsets' span — none when every
// patch installs at once — ping-ponging through scratch, which must be
// as long as entries.
func sortWave(entries, scratch []patchEntry) {
	if len(entries) < 2 {
		return
	}
	first, last := entries[0].at, entries[0].at
	for _, e := range entries {
		first, last = min(first, e.at), max(last, e.at)
	}
	span := uint64(last - first)
	src, dst := entries, scratch
	var count [1 << radixBits]int
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += radixBits {
		clear(count[:])
		for _, e := range src {
			count[uint64(e.at-first)>>shift&(1<<radixBits-1)]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, e := range src {
			d := uint64(e.at-first) >> shift & (1<<radixBits - 1)
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &entries[0] {
		copy(entries, src)
	}
}

// Descriptor implements mms.ResponseDescriber: immunization is fully
// determined by its development time and deployment window.
func (im *Immunizer) Descriptor() string {
	return "immunize|dev=" + strconv.FormatInt(int64(im.DevelopmentTime), 10) +
		"|deploy=" + strconv.FormatInt(int64(im.DeploymentWindow), 10)
}

var _ mms.ResponseDescriber = (*Immunizer)(nil)
