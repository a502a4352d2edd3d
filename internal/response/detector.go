package response

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Detector is the gateway virus-detection-algorithm mechanism: after the
// virus is detectable and an analysis period has elapsed, the gateway
// recognizes and stops subsequent infected messages with probability
// Accuracy. Unlike Scan it never reaches 100%, so it slows rather than
// stops the spread.
//
// By default recognition is correlated per sender per day: the heuristic
// either recognizes the specific variant a phone is flooding that day
// (probability Accuracy, every copy dropped) or misses it (every copy
// leaks). This models a signature-learning heuristic and is required to
// reproduce the paper's Figure 3 magnitudes against the multi-recipient
// Virus 2; set IndependentPerCopy for i.i.d. per-copy verdicts (used by the
// ablation benchmarks).
type Detector struct {
	// Accuracy is the probability of stopping an infected MMS
	// (paper: 0.80, 0.85, 0.90, 0.95, 0.99).
	Accuracy float64
	// AnalysisDelay is the time after detectability during which the
	// algorithm analyzes infected messages before it starts filtering.
	AnalysisDelay time.Duration
	// IndependentPerCopy makes each recipient copy an independent
	// Bernoulli(Accuracy) verdict instead of the correlated
	// per-sender-per-day recognition.
	IndependentPerCopy bool

	// Activation is armed at detection and shared by the per-shard
	// filters, which keep only their own random streams.
	armed      bool
	activateAt time.Duration
	// verdicts keeps one slot per phone, by global phone id, for the
	// latest day that phone sent on: (day+1)<<1 | recognized, zero for
	// none. A copy is inspected on its sender's own shard, so only the
	// owner shard writes a slot, and at that shard's clock, which never
	// runs backwards: once a sender's day has passed no copy of it asks
	// about that day again, so one slot is exact, not an eviction.
	verdicts []uint32
}

var _ mms.Response = (*Detector)(nil)

// DefaultAnalysisDelay is the analysis period used in the paper's detector
// studies, where only accuracy is varied.
const DefaultAnalysisDelay = 6 * time.Hour

// NewDetector returns a factory for gateway detection algorithms.
func NewDetector(accuracy float64, analysisDelay time.Duration) mms.ResponseFactory {
	return func() mms.Response {
		return &Detector{Accuracy: accuracy, AnalysisDelay: analysisDelay}
	}
}

// Name implements mms.Response.
func (d *Detector) Name() string {
	return fmt.Sprintf("gateway-detector(acc=%.2f,delay=%v)", d.Accuracy, d.AnalysisDelay)
}

// Attach implements mms.Response: one filter per shard sharing the
// activation time and the verdict slots. A one-shard detector draws from
// src directly; with more than one shard each filter draws from a pinned
// stream ("rsp" | shard) derived from src.
func (d *Detector) Attach(ss *mms.ShardSet, src *rng.Source) error {
	if d.Accuracy < 0 || d.Accuracy > 1 {
		return fmt.Errorf("response: detector accuracy %v outside [0,1]", d.Accuracy)
	}
	if d.AnalysisDelay < 0 {
		return fmt.Errorf("response: negative detector analysis delay")
	}
	if src == nil {
		return fmt.Errorf("response: detector needs a random source")
	}
	d.verdicts = make([]uint32, ss.N())
	shards := ss.Shards()
	for s, n := range shards {
		sd := &shardDetector{parent: d, src: src}
		if len(shards) > 1 {
			sd.src = new(rng.Source)
			src.StreamInto(sd.src, 0x727370<<16|uint64(s)) // "rsp" | shard
		}
		n.AddFilter(sd)
	}
	ss.OnVirusDetected(func(at time.Duration) {
		d.activateAt = at + d.AnalysisDelay
		d.armed = true
	})
	return nil
}

// ActiveAt reports whether the analysis period has completed at virtual
// time now.
func (d *Detector) ActiveAt(now time.Duration) bool {
	return d.armed && now >= d.activateAt
}

// shardDetector is one shard's filter for a Detector: the detector's
// state plus the shard's own random stream.
type shardDetector struct {
	parent *Detector
	src    *rng.Source
}

// Name implements mms.Filter.
func (sd *shardDetector) Name() string { return sd.parent.Name() }

// Inspect implements mms.Filter: once active, infected copies are stopped
// with probability Accuracy — correlated per sender-day by default,
// independently per copy when IndependentPerCopy is set.
func (sd *shardDetector) Inspect(from mms.PhoneID, _ int, now time.Duration) mms.FilterVerdict {
	d := sd.parent
	if !d.ActiveAt(now) {
		return mms.VerdictDeliver
	}
	if d.IndependentPerCopy {
		if sd.src.Bool(d.Accuracy) {
			return mms.VerdictDrop
		}
		return mms.VerdictDeliver
	}
	slot := &d.verdicts[from]
	day := uint32(now/(24*time.Hour)) + 1
	if *slot>>1 != day {
		*slot = day << 1
		if sd.src.Bool(d.Accuracy) {
			*slot |= 1
		}
	}
	if *slot&1 != 0 {
		return mms.VerdictDrop
	}
	return mms.VerdictDeliver
}

// Descriptor implements mms.ResponseDescriber. It covers every
// behaviour-determining parameter, including the per-copy independence
// flag that NewDetector leaves false.
func (d *Detector) Descriptor() string {
	return "detector|acc=" + strconv.FormatFloat(d.Accuracy, 'x', -1, 64) +
		"|delay=" + strconv.FormatInt(int64(d.AnalysisDelay), 10) +
		"|percopy=" + strconv.FormatBool(d.IndependentPerCopy)
}

var _ mms.ResponseDescriber = (*Detector)(nil)
