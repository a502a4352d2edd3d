package response

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Blacklist is the blacklisting mechanism: the provider counts suspected
// infected *messages* per phone (a multi-recipient message counts once, and
// messages to invalid numbers count — which is why it bites hardest on the
// random-dialing Virus 3); when a phone reaches the threshold, all its
// outgoing MMS service is stopped until the phone is proven clean (beyond
// the simulated horizon, as in the paper).
type Blacklist struct {
	// Threshold is the number of suspected infected messages after which a
	// phone is blacklisted (paper: 10, 20, 30, or 40).
	Threshold int

	// counts holds each phone's suspected infected messages by global
	// phone id, each slot written only by the sender's owner shard (every
	// send is controlled on its sender's shard). A phone is cut off once
	// its count reaches Threshold.
	counts []int32
}

var (
	_ mms.Response       = (*Blacklist)(nil)
	_ mms.SendController = (*Blacklist)(nil)
)

// NewBlacklist returns a factory for blacklisting at the given threshold.
func NewBlacklist(threshold int) mms.ResponseFactory {
	return func() mms.Response {
		return &Blacklist{Threshold: threshold}
	}
}

// Name implements mms.Response.
func (b *Blacklist) Name() string {
	return fmt.Sprintf("blacklist(threshold=%d)", b.Threshold)
}

// Attach implements mms.Response: the blacklist is installed as every
// shard's send controller.
func (b *Blacklist) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	if b.Threshold < 1 {
		return fmt.Errorf("response: blacklist threshold must be at least 1")
	}
	b.counts = make([]int32, ss.N())
	for _, n := range ss.Shards() {
		n.AddController(b)
	}
	return nil
}

// OnSendAttempt implements mms.SendController.
func (b *Blacklist) OnSendAttempt(p mms.PhoneID, _ time.Duration) mms.SendVerdict {
	if int(b.counts[p]) >= b.Threshold {
		return mms.SendVerdict{Action: mms.ActionBlock}
	}
	return mms.SendVerdict{Action: mms.ActionAllow}
}

// OnSent implements mms.SendController: count the suspected infected
// message. A blocked phone sends nothing more, so the count stops at the
// threshold.
func (b *Blacklist) OnSent(p mms.PhoneID, _ time.Duration, _ int) {
	b.counts[p]++
}

// Blacklisted reports whether phone p has been cut off (false for ids
// outside the population).
func (b *Blacklist) Blacklisted(p mms.PhoneID) bool {
	return p >= 0 && int(p) < len(b.counts) && int(b.counts[p]) >= b.Threshold
}

// BlacklistedPhones returns the phones currently cut off, in ascending ID
// order — the provider's blacklist.
func (b *Blacklist) BlacklistedPhones() []mms.PhoneID {
	var out []mms.PhoneID
	for p, c := range b.counts {
		if int(c) >= b.Threshold {
			out = append(out, mms.PhoneID(p))
		}
	}
	return out
}

// Descriptor implements mms.ResponseDescriber: blacklisting is fully
// determined by its activation threshold.
func (b *Blacklist) Descriptor() string {
	return "blacklist|threshold=" + strconv.Itoa(b.Threshold)
}

var _ mms.ResponseDescriber = (*Blacklist)(nil)
