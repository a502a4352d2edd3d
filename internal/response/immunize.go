package response

import (
	"fmt"
	"sort"
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
	// phone order and sorted by (install time, id); wave[:waveNext] are
	// scheduled on their owner shards, the rest wait for a later window.
	armed    bool
	deployAt time.Duration
	wave     []patchEntry
	waveNext int
}

// patchEntry is one phone's patch installation in a deployment wave.
type patchEntry struct {
	at time.Duration
	id mms.PhoneID
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

// Attach implements mms.Response. Detection draws the deployment wave and
// releases the patches installing inside the current window; each later
// barrier releases the next window's share. Releasing window by window
// keeps a many-shard run from holding the whole wave in its event queues
// at once.
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
	ss.OnVirusDetected(func(at time.Duration) {
		im.draw(ss, src, at+im.DevelopmentTime)
		im.release(ss, ss.WindowEnd())
	})
	ss.OnBarrier(func(_, next time.Duration) {
		im.release(ss, next)
	})
	return nil
}

// draw builds the deployment wave starting at start: one uniform offset
// across the deployment window per phone that can be patched, drawn in
// phone order so the wave is the same for any shard layout.
func (im *Immunizer) draw(ss *mms.ShardSet, src *rng.Source, start time.Duration) {
	im.armed = true
	im.deployAt = start
	for i := 0; i < ss.N(); i++ {
		id := mms.PhoneID(i)
		if ss.State(id) == mms.StateNotVulnerable {
			continue // nothing to patch against
		}
		var offset time.Duration
		if im.DeploymentWindow > 0 {
			offset = time.Duration(src.Uniform(0, float64(im.DeploymentWindow)))
		}
		im.wave = append(im.wave, patchEntry{at: start + offset, id: id})
	}
	sort.Slice(im.wave, func(i, j int) bool {
		if im.wave[i].at != im.wave[j].at {
			return im.wave[i].at < im.wave[j].at
		}
		return im.wave[i].id < im.wave[j].id
	})
}

// release schedules every pending patch installing before end on its
// owner shard, at its install time or the shard's current time, whichever
// is later. Entries release in (time, id) order, so same-instant installs
// tie-break by id on each shard's event queue.
func (im *Immunizer) release(ss *mms.ShardSet, end time.Duration) {
	nets := ss.Shards()
	for ; im.waveNext < len(im.wave); im.waveNext++ {
		e := im.wave[im.waveNext]
		if e.at >= end {
			return
		}
		n, id := nets[ss.ShardOf(e.id)], e.id
		if _, err := n.Sim().ScheduleAt(max(e.at, n.Sim().Now()), func(*des.Simulation) {
			// Patch failures are impossible for in-range ids.
			_ = n.Patch(id)
		}); err != nil {
			return
		}
	}
}

// DeploymentStart reports whether the virus has been detected and, if so,
// when patch deployment begins (or began).
func (im *Immunizer) DeploymentStart() (time.Duration, bool) {
	return im.deployAt, im.armed
}

// Descriptor implements mms.ResponseDescriber: immunization is fully
// determined by its development time and deployment window.
func (im *Immunizer) Descriptor() string {
	return "immunize|dev=" + strconv.FormatInt(int64(im.DevelopmentTime), 10) +
		"|deploy=" + strconv.FormatInt(int64(im.DeploymentWindow), 10)
}

var _ mms.ResponseDescriber = (*Immunizer)(nil)
