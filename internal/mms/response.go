package mms

import (
	"time"

	"repro/internal/rng"
)

// Response is a virus response mechanism that attaches to a run: gateway
// filters, send controllers, consent changes, or patch schedulers.
// Implementations live in internal/response; the interface lives here so
// the core runner can wire mechanisms without depending on their package.
//
// A mechanism must honour the determinism contract: its behaviour may
// depend on (config, seed, shard count, window) but never on worker count
// or scheduling. Each mechanism is one instance installed on every shard,
// and its state takes one of these shapes (DESIGN.md §15):
//
//   - Per-phone slots indexed by global phone id (monitor histories,
//     blacklist counts, detector verdicts), each written only by the
//     sender's owner shard — every message is controlled and filtered on
//     its sending shard, so shards never write the same slot.
//   - Globally shared scalars armed at detection (signature activation
//     times) that inspections compare against. With more than one shard
//     these are written only between windows by the coordinator; the
//     barrier's pool hand-off orders the writes before the next window's
//     reads.
//   - Work drawn globally at detection and released onto owner shards
//     window by window (patch waves). The coordinator draws it; each
//     shard's barrier hook (OnShardBarrier) then orders and schedules its
//     own share, in parallel with the other shards'. Detection callbacks
//     run before any shard injects its barrier's copies, so they must not
//     read what injection writes: the duplicate-suppression trials and
//     the shard queues.
type Response interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Attach installs the mechanism across the shard set. src provides the
	// mechanism's private randomness (detector coin flips, deployment
	// jitter); mechanisms needing per-shard randomness derive pinned
	// sub-streams from it. Attach is called once per replication before
	// the simulation starts.
	Attach(ss *ShardSet, src *rng.Source) error
}

// ResponseFactory builds a fresh Response per replication, so mechanisms can
// keep per-run state.
type ResponseFactory func() Response

// ResponseDescriber is optionally implemented by Response values whose
// behaviour is fully determined by declarative parameters. Descriptor
// returns a canonical encoding of those parameters: two responses with
// equal descriptors must behave identically in every replication, because
// the experiment layer folds descriptors into configuration fingerprints
// that content-address cached replication results. A response carrying
// behaviour a string cannot capture — callbacks, state shared across
// replications, ambient inputs — must NOT implement this interface;
// factories whose products are not describable simply make their
// configuration uncacheable, which is always safe.
type ResponseDescriber interface {
	Descriptor() string
}

// AttachResponse installs r across the shard set via r.Attach and records
// the instance, so post-run analyses (core.Config.PostRun hooks) can
// locate the mechanism objects that served a given replication through
// Responses.
func (ss *ShardSet) AttachResponse(r Response, src *rng.Source) error {
	if err := r.Attach(ss, src); err != nil {
		return err
	}
	ss.responses = append(ss.responses, r)
	return nil
}

// AttachResponse installs r across the shard set this network belongs to.
func (n *Network) AttachResponse(r Response, src *rng.Source) error {
	return n.set.AttachResponse(r, src)
}

// Responses returns the mechanisms installed via AttachResponse, in attach
// order. The returned slice is shared with the shard set; callers must not
// modify it.
func (ss *ShardSet) Responses() []Response { return ss.responses }

// OnVirusDetected registers a callback fired once, when the set records the
// gateway detection: the k-th earliest infected message across all shards
// (k = Config.GatewayDetectThreshold). The set keeps one detection record
// for every shard count; only when it is written differs. One shard
// records it inside the observing event, so callbacks fire at the exact
// detection time. More shards record it at the first window barrier where
// the merged per-shard observations reach k, so callbacks fire at that
// barrier with a time inside the window that just closed. Either way
// mechanisms treat the time as a possibly-past instant: they arm state
// that inspections compare against, and schedule events no earlier than
// their shard's current time. Registering after detection fires
// immediately with the recorded time.
func (ss *ShardSet) OnVirusDetected(fn func(at time.Duration)) {
	if fn == nil {
		return
	}
	if ss.detected {
		fn(ss.detectedAt)
		return
	}
	ss.onDetected = append(ss.onDetected, fn)
}

// OnShardBarrier registers a per-shard hook run at every barrier, once per
// shard with the shard index and the next barrier. Each shard runs its
// hooks in registration order in its barrier task, after the detection
// callbacks and after that shard's injection of the copies exchanged at
// the barrier: on the worker pool under Run, inline under RunWindow and on
// one shard. A hook may touch only its own shard's queue and phones, and
// may read state the detection callbacks wrote earlier in the barrier;
// work committed for the upcoming window must be scheduled before next.
// With more than one shard, a panicking hook fails Run with an error
// naming the shard and the barrier.
func (ss *ShardSet) OnShardBarrier(fn func(shard int, next time.Duration)) {
	if fn != nil {
		ss.onShard = append(ss.onShard, fn)
	}
}

// Detected reports whether and when the virus reached the gateway
// detection threshold globally: the k-th earliest observation overall. It
// reads the set's detection record, and before a barrier has recorded one
// it merges the per-shard observations on demand, which is exact at any
// time the shard event loops are idle.
func (ss *ShardSet) Detected() (time.Duration, bool) {
	if ss.detected {
		return ss.detectedAt, true
	}
	return ss.mergeDetection()
}

// detect records the detection at at and fires the detection callbacks.
func (ss *ShardSet) detect(at time.Duration) {
	ss.detected = true
	ss.detectedAt = at
	for _, fn := range ss.onDetected {
		fn(at)
	}
	ss.onDetected = nil
}

// mergeDetection recovers the global detection time from the per-shard
// observation prefixes. Each shard records the times of its first k
// observations (k = detection threshold); since per-shard event time is
// monotone, the union of those prefixes contains the k globally earliest
// observations, so once the union holds at least k entries its k-th
// smallest is the global detection time — final, because every unrecorded
// observation is later than its shard's recorded ones. Until the union
// holds k entries the merge returns before touching its buffer. That is
// always the case on an undetected one-shard set, whose k-th observation
// records the detection inline (Network.observe), so a one-shard run never
// allocates the buffer. The buffer is reused and sorted by insertion
// (bounded at shards x k entries, with k typically in the tens), keeping
// barriers allocation-free steady-state.
func (ss *ShardSet) mergeDetection() (time.Duration, bool) {
	k, total := ss.detectK, 0
	for _, net := range ss.nets {
		total += len(net.obsTimes)
	}
	if total < k {
		return 0, false
	}
	ss.detScratch = ss.detScratch[:0]
	for _, net := range ss.nets {
		for _, t := range net.obsTimes {
			ss.detScratch = append(ss.detScratch, t)
			i := len(ss.detScratch) - 1
			for i > 0 && ss.detScratch[i-1] > t {
				ss.detScratch[i] = ss.detScratch[i-1]
				i--
			}
			ss.detScratch[i] = t
		}
	}
	return ss.detScratch[k-1], true
}
